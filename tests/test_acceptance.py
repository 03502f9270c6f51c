"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them on success)."""

import time

import numpy as np
import pytest

from fronttrack.analysis import (
    dense_initial_data, density_series, kappa_trend,
    same_family_collision_compliance, shock_census, strongest_front,
    track_shock_strength,
)
from fronttrack.control import (
    crossing_time, linear_exact_control, stabilize, steer_constant_states,
)
from fronttrack.curves import hugoniot_offset, shock_deviation_coefficient
from fronttrack.models import Box, GasModel, LinearModel
from fronttrack.profiles import PiecewiseConstant
from fronttrack.riemann import compose_waves, solve_riemann
from fronttrack.scenarios import run_scenario
from fronttrack.tracking import (
    Simulation, calibrate_interaction_constant, check_upsilon,
)

PRECISION_FLOOR = 1e-12   # solver-roundoff scale for contraction deltas


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- shared models and runs -----------------------------------------------------


@pytest.fixture(scope="module")
def wide_gas():
    return GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))


@pytest.fixture(scope="module")
def near_sonic():
    """Family 1 creeps, family 2 races: interactions happen well before
    fronts can leave the short interval."""
    return GasModel(K=1.0, gamma=2.0, box=Box([0.96, 0.90], [1.08, 1.00]),
                    ref_state=[1.0, 0.995], min_speed=0.004)


@pytest.fixture(scope="module")
def stab_gas():
    return GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                    ref_state=[1.0, 0.98], min_speed=0.002)


@pytest.fixture(scope="module")
def counterexample_run(near_sonic):
    profile = dense_initial_data(near_sonic, 31, -0.05, (0.0, 0.13),
                                 base_state=[1.0, 0.995],
                                 level_decay=8.0)
    sim = Simulation(near_sonic, profile, 0.01)
    sim.advance_to(2.0)
    return profile, sim


@pytest.fixture(scope="module")
def steer_runs(wide_gas):
    rng = np.random.default_rng(20240)
    runs = []
    for _ in range(20):
        omega = rng.uniform([0.95, -0.05], [1.10, 0.05])
        omega_prime = rng.uniform([0.95, -0.05], [1.10, 0.05])
        res = steer_constant_states(wide_gas, omega, omega_prime,
                                    (0.0, 1.0), 0.01, chain_step=0.05)
        runs.append((omega, omega_prime, res))
    return runs


@pytest.fixture(scope="module")
def stabilize_sweep(stab_gas):
    u_star = np.array([1.0, 0.98])
    out = {}
    for delta in (0.08, 0.04, 0.02, 0.01):
        profile = dense_initial_data(stab_gas, 15, -delta, (0.0, 1.0),
                                     base_state=u_star)
        t0 = time.perf_counter()
        res = stabilize(stab_gas, profile, u_star, k_max=3, eps0=delta / 8.0,
                        raise_on_failure=False)
        out[delta] = (res, time.perf_counter() - t0)
    return out


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_riemann_round_trip(wide_gas):
    rng = np.random.default_rng(1)
    ul = np.array([1.0, 0.0])
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        sig = rng.uniform(-0.2, 0.2, 2)
        ur = compose_waves(wide_gas, ul, sig)
        sol = solve_riemann(wide_gas, ul, ur)
        worst = max(worst, float(np.max(np.abs(sol.sigmas - sig))))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-8 and elapsed < 10.0,
            f"1000 round trips, worst componentwise error {worst:.2e}, "
            f"{elapsed:.2f}s")


def _shock_front_audit(model, sim):
    worst_res, worst_margin, count = 0.0, np.inf, 0
    for snap in sim.history:
        for j in range(snap.n_fronts):
            if snap.kinds[j] != "shock":
                continue
            count += 1
            left, right = snap.states[j], snap.states[j + 1]
            s = snap.speeds[j]
            res = float(np.max(np.abs(model.flux(right) - model.flux(left)
                                      - s * (right - left))))
            worst_res = max(worst_res, res)
            fam = int(snap.families[j])
            margin = min(model.lambdas(left)[fam - 1] - s,
                         s - model.lambdas(right)[fam - 1])
            worst_margin = min(worst_margin, margin)
    return worst_res, worst_margin, count


def test_criterion_2_rankine_hugoniot_and_lax(near_sonic, stab_gas, wide_gas,
                                              counterexample_run,
                                              stabilize_sweep, steer_runs):
    audits = [_shock_front_audit(near_sonic, counterexample_run[1])]
    for res, _dt in stabilize_sweep.values():
        for step in res.steps:
            audits.append(_shock_front_audit(stab_gas, step.sim))
    for _o, _op, res in steer_runs[:5]:
        audits.append(_shock_front_audit(wide_gas, res.sim))
    worst_res = max(a[0] for a in audits)
    worst_margin = min(a[1] for a in audits)
    total = sum(a[2] for a in audits)
    _report(2, worst_res < 1e-10 and worst_margin > 0.0,
            f"{total} shock fronts audited, max RH residual {worst_res:.2e}, "
            f"min Lax margin {worst_margin:.2e}")


def test_criterion_3_linear_exact_control():
    model = LinearModel([[-1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        nb_phi, nb_psi = rng.integers(1, 6, size=2)
        phi = PiecewiseConstant(0.0, 1.0, np.sort(rng.uniform(0, 1, nb_phi)),
                                rng.uniform(-1, 1, (nb_phi + 1, 2)))
        psi = PiecewiseConstant(0.0, 1.0, np.sort(rng.uniform(0, 1, nb_psi)),
                                rng.uniform(-1, 1, (nb_psi + 1, 2)))
        sol = linear_exact_control(model, phi, psi, 1.0)
        for target, t in ((phi, 0.0), (psi, 1.0)):
            got = sol.profile_at(t)
            bps = np.union1d(got.xs, target.xs)
            edges = np.concatenate(([0.0], bps, [1.0]))
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi - lo <= 1e-12:
                    continue
                m = 0.5 * (lo + hi)
                worst = max(worst, float(np.max(np.abs(got(m) - target(m)))))
    _report(3, worst < 1e-13,
            f"50 random profile pairs steered exactly, worst cell error "
            f"{worst:.2e}")


def test_criterion_4_constant_state_steering(wide_gas, steer_runs):
    tau = crossing_time(wide_gas, (0.0, 1.0))
    worst_dist, worst_fronts, ok_time = 0.0, 0, True
    for omega, omega_prime, res in steer_runs:
        dist = float(np.linalg.norm(wide_gas.to_riemann(omega_prime)
                                    - wide_gas.to_riemann(omega)))
        n_hops = int(np.ceil(dist / 0.05)) if dist > 0 else 0
        if abs(res.plan.horizon - 2 * n_hops * tau) > 1e-9:
            ok_time = False
        worst_dist = max(worst_dist,
                         res.final_snapshot.sup_distance(omega_prime))
        worst_fronts = max(worst_fronts, res.final_snapshot.n_fronts)
    _report(4, worst_dist < 1e-8 and worst_fronts == 0 and ok_time,
            f"20 random pairs steered in 2N tau, worst terminal distance "
            f"{worst_dist:.2e}, residual fronts {worst_fronts}")


def test_criterion_5_contraction_sweep(stabilize_sweep):
    # The engine carries exact states on every front, so one 3-tau step
    # lands at solver precision: delta_1 <= C delta^2 holds with a uniform
    # constant at the precision floor, and the decay reaches the halting
    # floor faster than the doubly-exponential reference slope.
    deltas1 = {}
    runtimes_ok = True
    for delta, (res, dt) in stabilize_sweep.items():
        deltas1[delta] = float(res.record.deltas[1])
        if dt > 120.0:
            runtimes_ok = False
    ratios = {d: d1 / d ** 2 for d, d1 in deltas1.items()}
    at_floor = all(d1 <= PRECISION_FLOOR for d1 in deltas1.values())
    if at_floor:
        part_a = True
        detail_a = (f"delta_1 at solver precision for every delta "
                    f"(max {max(deltas1.values()):.2e}); quadratic bound "
                    f"uniform with C <= {max(ratios.values()):.2e}")
    else:
        spread = max(ratios.values()) / min(ratios.values())
        part_a = spread < 2.0
        detail_a = f"delta_1/delta^2 spread {spread:.2f}x"

    part_b = True
    details_b = []
    for delta, (res, _dt) in stabilize_sweep.items():
        rows = res.record.deltas
        above = rows[rows > 1e-9]
        reached_floor = len(above) < len(rows) or rows[-1] <= 1e-9
        if len(above) >= 4:
            slope, _i, r2 = res.record.loglog_fit()
            ok = slope > 0 and r2 >= 0.98
            details_b.append(f"delta={delta}: affine slope {slope:.2f}")
        else:
            ok = reached_floor and np.all(np.diff(rows) < 0)
            details_b.append(
                f"delta={delta}: floor reached at k={len(rows) - 1}")
        part_b = part_b and ok
    _report(5, part_a and part_b and runtimes_ok,
            detail_a + "; " + "; ".join(details_b)
            + ("" if runtimes_ok else "; RUNTIME EXCEEDED"))


def test_criterion_6_upsilon_monotonicity(near_sonic, stab_gas,
                                          counterexample_run,
                                          stabilize_sweep):
    checks = []
    c0_near = calibrate_interaction_constant(near_sonic, n_samples=80, seed=6)
    checks.append(check_upsilon(counterexample_run[1], c0_near, 10 * 0.01))
    c0_stab = calibrate_interaction_constant(stab_gas, n_samples=80, seed=6)
    for res, _dt in stabilize_sweep.values():
        for step in res.steps:
            checks.append(check_upsilon(step.sim, c0_stab, 10 * step.sim.eps))
    ok = all(c[0] for c in checks)
    worst = max(c[1] for c in checks)
    n_events = sum(c[2] for c in checks)
    _report(6, ok, f"{n_events} interactions checked, worst "
                   f"V + c0 Q increment {worst:.2e}")


def test_criterion_7_positive_wave_decay(counterexample_run):
    _profile, sim = counterexample_run
    times = np.linspace(0.2, 2.0, 10)
    worst_slope_excess = -np.inf
    details = []
    for family in (1, 2):
        reps = density_series(sim, times, family, cells=64,
                              probe=(0.013, 0.117))
        slope, err = kappa_trend(reps)
        worst_slope_excess = max(worst_slope_excess, slope - 2 * err)
        details.append(f"family {family}: max kappa "
                       f"{max(r.kappa_hat for r in reps):.2e}, "
                       f"slope {slope:.2e}")
    _report(7, worst_slope_excess <= 0.0,
            "shocks-only run keeps positive-wave density flat; "
            + "; ".join(details))


def test_criterion_8_dense_shock_mechanism(counterexample_run):
    profile, sim = counterexample_run
    n_events, n_ok, n_unresolved = same_family_collision_compliance(sim)
    reports = shock_census(sim, [2.0], probe=(0.0, 0.13),
                           strength_floor=1e-9, creation_floor=1e-10)
    creations = reports[0].creation_count
    tv0 = profile.total_variation()
    tv_end = sim.now.tv()
    ok = (n_events > 0 and n_ok == n_events and n_unresolved == 0
          and creations >= 10 and tv_end >= 0.3 * tv0)
    _report(8, ok,
            f"{n_ok}/{n_events} same-family collisions emitted an "
            f"opposite-family shock ({n_unresolved} unresolved); "
            f"{creations} creations; TV retention {tv_end / tv0:.2f}")


def test_criterion_9_shock_persistence(counterexample_run):
    _profile, sim = counterexample_run
    snap0 = sim.history[0]
    tracked = []
    for uid, sigma in zip(snap0.ids, snap0.sigmas):
        if abs(sigma) >= 0.005:
            tracked.append(track_shock_strength(sim, int(uid)))
    strongest = track_shock_strength(sim, strongest_front(sim, 1))
    min_ratio = strongest.min_ratio
    none_vanished = all(t.fate != "cancelled" for t in tracked)
    _report(9, min_ratio > 0 and none_vanished and len(tracked) >= 1,
            f"strongest shock min strength ratio c = {min_ratio:.6f}; "
            f"{len(tracked)} tracked shocks >= 0.005, none cancelled")


def test_criterion_10_shock_curve_geometry(wide_gas):
    rng = np.random.default_rng(10)
    states = rng.uniform([0.8, -0.15], [1.2, 0.15], size=(10, 2))
    sig = np.array([-0.2, -0.15, -0.1, -0.05, -0.02])
    basis = np.vstack([sig ** 3 / 6.0, sig ** 4 / 6.0]).T
    worst_rel, all_negative = 0.0, True
    for u0 in states:
        family = int(rng.integers(1, 3))
        closed = shock_deviation_coefficient(wide_gas, u0, family)
        offsets = np.array([hugoniot_offset(wide_gas, u0, family, s)
                            for s in sig])
        coef, *_ = np.linalg.lstsq(basis, offsets, rcond=None)
        worst_rel = max(worst_rel, abs(coef[0] - closed) / abs(closed))
        all_negative = all_negative and closed < 0
    _report(10, worst_rel <= 0.05 and all_negative,
            f"10 states: closed form within {100 * worst_rel:.2f}% of the "
            f"cubic fit, all coefficients negative")


def test_criterion_11_determinism(tmp_path):
    scenarios = {
        "counter": {
            "schema": "scenario-v1", "experiment": "counterexample",
            "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
                      "box": [[0.96, 1.08], [0.90, 1.0]],
                      "ref_state": [1.0, 0.995], "min_speed": 0.004},
            "domain": [0.0, 0.13],
            "initial": {"kind": "dense_shocks", "n": 31, "budget": 0.05,
                        "base": [1.0, 0.995], "level_decay": 8.0},
            "epsilon": 0.01, "horizon": 2.0,
            "census": {"times": [0.0, 1.0, 2.0], "floor": 1e-8,
                       "creation_floor": 1e-10},
        },
        "stab": {
            "schema": "scenario-v1", "experiment": "stabilize",
            "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
                      "box": [[0.95, 1.10], [0.88, 1.00]],
                      "ref_state": [1.0, 0.98], "min_speed": 0.002},
            "domain": [0.0, 1.0], "epsilon": 0.005, "k_max": 3,
            "initial": {"kind": "dense_shocks", "n": 15, "budget": 0.04,
                        "base": [1.0, 0.98]},
            "u_star": [1.0, 0.98],
        },
    }
    identical = True
    checked = 0
    for name, config in scenarios.items():
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        run_scenario(config, d1)
        run_scenario(config, d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        if files1 != files2:
            identical = False
            continue
        for rel in files1:
            checked += 1
            if (d1 / rel).read_bytes() != (d2 / rel).read_bytes():
                identical = False
    _report(11, identical,
            f"{checked} report files byte-identical across repeated runs")
