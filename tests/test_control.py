import numpy as np
import pytest

from fronttrack import control
from fronttrack.control import (
    crossing_time, linear_exact_control, stabilization_step, stabilize,
    steer_constant_states,
)
from fronttrack.errors import ContractViolationError
from fronttrack.models import LinearModel
from fronttrack.profiles import PiecewiseConstant, constant_profile
from fronttrack.analysis import dense_initial_data

U0 = np.array([1.0, 0.0])


def _random_profile(rng, n_breaks, amplitude=0.5):
    xs = np.sort(rng.uniform(0.0, 1.0, n_breaks))
    values = rng.uniform(-amplitude, amplitude, (n_breaks + 1, 2))
    return PiecewiseConstant(0.0, 1.0, xs, values)


def _profiles_agree(pa, pb):
    # breakpoint positions may drift by float roundoff when shifted along
    # characteristics; compare on midpoints of cells wider than that
    bps = np.union1d(pa.xs, pb.xs)
    edges = np.concatenate(([pa.a], bps, [pa.b]))
    mids = [0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])
            if hi - lo > 1e-12]
    return max(float(np.max(np.abs(pa(m) - pb(m)))) for m in mids)


def test_linear_control_constant_profiles(diag_linear):
    c = np.array([0.3, -0.1])
    phi = constant_profile(0.0, 1.0, c)
    sol = linear_exact_control(diag_linear, phi, phi, 1.0)
    assert _profiles_agree(sol.profile_at(0.0), phi) == 0.0
    assert _profiles_agree(sol.profile_at(0.5), phi) == 0.0
    for data in sol.boundary_data().values():
        assert np.allclose(np.diff(data.values), 0.0)


def test_linear_control_reconstructs_target(diag_linear):
    rng = np.random.default_rng(42)
    phi = constant_profile(0.0, 1.0, np.zeros(2))
    psi = _random_profile(rng, 4)
    sol = linear_exact_control(diag_linear, phi, psi, 1.0)
    assert _profiles_agree(sol.profile_at(0.0), phi) < 1e-14
    assert _profiles_agree(sol.profile_at(1.0), psi) < 1e-14


def test_linear_control_needs_crossing_time(diag_linear):
    phi = constant_profile(0.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        linear_exact_control(diag_linear, phi, phi, 0.5)


def test_linear_control_general_matrix():
    model = LinearModel([[-2.0, 0.5], [0.3, 1.5]])
    rng = np.random.default_rng(8)
    phi = _random_profile(rng, 3)
    psi = _random_profile(rng, 2)
    T = crossing_time(model, (0.0, 1.0)) + 0.2
    sol = linear_exact_control(model, phi, psi, T)
    assert _profiles_agree(sol.profile_at(0.0), phi) < 1e-13
    assert _profiles_agree(sol.profile_at(T), psi) < 1e-13


def test_crossing_time_examples(gas, diag_linear):
    assert crossing_time(diag_linear, (0.0, 1.0)) == pytest.approx(1.0)
    tau = crossing_time(gas, (0.0, 2.0))
    assert tau == pytest.approx(2.0 * crossing_time(gas, (0.0, 1.0)))


def test_steer_identity_is_empty_plan(gas):
    res = steer_constant_states(gas, U0, U0, (0.0, 1.0), 0.05)
    assert res.actions == []
    assert res.sim.time == 0.0
    assert res.sim.now.sup_distance(U0) == 0.0


def test_steer_single_hop(gas):
    target = np.array([1.05, 0.02])
    res = steer_constant_states(gas, U0, target, (0.0, 1.0), 0.01,
                                chain_step=0.1)
    assert len(res.actions) == 2
    assert res.sim.time == pytest.approx(2 * res.tau)
    assert res.sim.now.sup_distance(target) < 1e-8
    assert res.sim.now.n_fronts == 0


def test_steer_four_hop_chain(gas):
    # Riemann-coordinate distance in (0.15, 0.2] so chain_step 0.05 gives N=4
    target = np.array([1.10, 0.08])
    w0 = gas.to_riemann(U0)
    w1 = gas.to_riemann(target)
    dist = float(np.linalg.norm(w1 - w0))
    assert 0.15 < dist <= 0.2
    res = steer_constant_states(gas, U0, target, (0.0, 1.0), 0.01,
                                chain_step=0.05)
    assert len(res.actions) == 8
    assert res.sim.time == pytest.approx(8 * res.tau)
    assert all(err < 1e-8 for err in res.hop_errors)
    assert res.sim.now.sup_distance(target) < 1e-8
    assert res.sim.now.n_fronts == 0


def test_steer_injections_respect_family_sides(gas):
    res = steer_constant_states(gas, U0, np.array([1.05, -0.03]),
                                (0.0, 1.0), 0.01, chain_step=0.05)
    families = res.sim.fronts["families"]
    for rec in res.sim.records:
        if rec.kind == "inject_b":
            assert all(f <= gas.p for f in families[rec.out_ids])
        elif rec.kind == "inject_a":
            assert all(f > gas.p for f in families[rec.out_ids])
    # every injected front leaves within one crossing time
    for rec in res.sim.records:
        if not rec.kind.startswith("inject"):
            continue
        for uid in rec.out_ids:
            exits = [r for r in res.sim.records
                     if r.kind.startswith("exit") and uid in r.in_ids]
            consumed = [r for r in res.sim.records
                        if r.kind == "collision" and uid in r.in_ids]
            if exits:
                assert exits[0].time <= rec.time + res.tau + 1e-9
            else:
                assert consumed, f"front {uid} neither exited nor interacted"


def test_stabilization_step_fixed_point(gas_slow):
    u_star = np.array([1.0, 0.98])
    step = stabilization_step(gas_slow, constant_profile(0.0, 1.0, u_star),
                              u_star, 0.01)
    assert step.snapshot.sup_distance(u_star) == 0.0
    assert step.snapshot.tv() == 0.0
    assert step.violations == []


def test_stabilization_step_contracts_dense_shocks(gas_slow):
    u_star = np.array([1.0, 0.98])
    prof = dense_initial_data(gas_slow, 15, -0.04, (0.0, 1.0),
                              base_state=u_star)
    delta0 = max(prof.sup_distance(u_star), prof.total_variation())
    step = stabilization_step(gas_slow, prof, u_star, 0.005)
    assert step.violations == []
    tv = step.snapshot.tv()
    assert max(step.snapshot.sup_distance(u_star), tv) < delta0
    assert tv < delta0 ** 2             # at least quadratic improvement


def test_stabilization_step_precondition(gas_slow):
    u_star = np.array([1.0, 0.98])
    prof = dense_initial_data(gas_slow, 15, -0.05, (0.0, 1.0),
                              base_state=u_star)
    with pytest.raises(ContractViolationError):
        stabilization_step(gas_slow, prof, u_star, 0.01, delta0=0.01)


def test_stabilize_fixed_point(gas_slow):
    u_star = np.array([1.0, 0.98])
    res = stabilize(gas_slow, constant_profile(0.0, 1.0, u_star), u_star,
                    k_max=3, eps0=0.01)
    assert res.record.failure == ""
    assert all(row.delta == 0.0 for row in res.record.rows)


def test_stabilize_dense_shock_run(gas_slow):
    u_star = np.array([1.0, 0.98])
    prof = dense_initial_data(gas_slow, 15, -0.05, (0.0, 1.0),
                              base_state=u_star)
    res = stabilize(gas_slow, prof, u_star, k_max=4, eps0=0.006)
    deltas = res.record.deltas
    assert len(deltas) >= 2
    assert np.all(np.diff(deltas) < 0)
    # quadratic-order contraction: one constant covers every observed step
    for k in range(1, len(deltas)):
        assert deltas[k] <= 1.0 * deltas[k - 1] ** 2
    # at desk scale the step lands at solver precision, so either the
    # doubly-exponential fit has slope > 0 or the floor was reached outright
    slope, _, _ = res.record.loglog_fit()
    assert slope > 0 or deltas[-1] < 1e-9
    assert res.record.failure == ""
    for step in res.steps:
        assert step.violations == []


def _record(deltas):
    return control.ContractionRecord([
        control.ContractionRow(k, float(k), d, d, d, float("nan"))
        for k, d in enumerate(deltas)])


def test_loglog_fit_of_a_doubly_exponential_contraction():
    # delta_k = delta_0 ** (2 ** k): log log(1 / delta_k) = k ln 2 + const
    record = _record([0.5 ** (2 ** k) for k in range(6)])
    slope, intercept, r2 = record.loglog_fit()
    assert slope == pytest.approx(np.log(2.0), rel=1e-12)
    assert intercept == pytest.approx(np.log(np.log(2.0)), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # one delta above the cut-off, the next one at it: no fit
    assert _record([0.028, control.LOGLOG_FLOOR]).loglog_fit() == (0.0, 0.0, 0.0)


def test_stabilize_pre_phase_reaches_far_target(gas_slow):
    u_star = np.array([1.04, 0.93])
    prof = dense_initial_data(gas_slow, 7, -0.01, (0.0, 1.0),
                              base_state=[1.0, 0.98])
    res = stabilize(gas_slow, prof, u_star, k_max=2, eps0=0.002, delta0=0.03)
    assert res.record.failure == ""
    assert len(res.pre_actions) >= 2
    assert res.record.rows[0].delta < 0.03
    assert res.record.rows[-1].delta < 1e-8


@pytest.mark.parametrize("case", ["steps", "pre_phase_then_steps"])
def test_stabilize_reports_absolute_time(gas_slow, case, monkeypatch):
    # floor 0 keeps the loop stepping after it reaches u_star exactly
    monkeypatch.setattr(control, "DELTA_FLOOR", 0.0)
    if case == "steps":
        u_star = np.array([1.0, 0.98])
        prof = dense_initial_data(gas_slow, 15, -0.08, (0.0, 1.0),
                                  base_state=u_star)
        res = stabilize(gas_slow, prof, u_star, k_max=3, eps0=0.01)
        start = 0.0
        assert res.pre_actions == []
    else:
        u_star = np.array([1.04, 0.93])
        prof = dense_initial_data(gas_slow, 7, -0.01, (0.0, 1.0),
                                  base_state=[1.0, 0.98])
        res = stabilize(gas_slow, prof, u_star, k_max=2, eps0=0.002,
                        delta0=0.03)
        n_hops = len(res.pre_actions) // 2
        assert n_hops >= 1
        start = (1 + 2 * n_hops) * res.tau
    assert res.record.failure == ""
    tau = res.tau
    k_max = len(res.record.rows) - 1
    assert [row.time for row in res.record.rows] == pytest.approx(
        [start + 3 * k * tau for k in range(k_max + 1)])
    assert len(res.steps) == k_max
    for step, row in zip(res.steps, res.record.rows[1:]):
        assert step.snapshot.time == row.time
        assert [a.time for a in step.actions] == pytest.approx(
            [row.time - 2 * tau, row.time - tau])
    times = [a.time for a in res.pre_actions]
    times += [a.time for step in res.steps for a in step.actions]
    assert np.all(np.diff(times) > 0)
