import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.curves import lax_curve, shock_curve
from fronttrack.errors import ContractViolationError
from fronttrack.models import Box, GasModel, LinearModel
from fronttrack.profiles import constant_profile, profile_from_jumps
from fronttrack.riemann import (solve_riemann, split_boundary_pair,
                               split_boundary_pair_reverse)
from fronttrack.tracking import (
    SPACE_TIE, TIME_TIE, Event, Simulation, Snapshot,
    calibrate_interaction_constant, check_upsilon, wave_measures,
)

U0 = np.array([1.0, 0.0])

# leading coefficient of the opposite-family strength produced when two
# same-family waves a, b merge: sigma_out ~ -G^3 (c/2) sa sb (sa + sb) with
# G = d(lambda)/d(w) = (gamma+1)/4 and c the cubic deviation coefficient
PRODUCTION = (0.75 ** 3) * (1.0 / 36.0)


def test_constant_data_has_no_fronts(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    assert sim.now.n_fronts == 0
    assert sim.next_event() is None
    snap = sim.advance_to(10.0)
    assert snap.tv() == 0.0
    assert np.allclose(snap.states[0], U0)


def test_single_shock_jump_resolves_to_one_front(gas):
    cp = shock_curve(gas, U0, 1, -0.2)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    snap = sim.now
    assert snap.n_fronts == 1
    assert snap.kinds[0] == "shock"
    assert snap.families[0] == 1
    assert snap.generations[0] == 1
    assert snap.speeds[0] == pytest.approx(cp.speed, abs=1e-12)


def test_rarefaction_jump_fans_into_pieces(gas):
    cp = lax_curve(gas, U0, 2, 0.25)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    snap = sim.now
    sigmas = list(snap.sigmas)
    assert len(sigmas) == 3
    assert all(0 < s <= 0.1 + 1e-12 for s in sigmas)
    assert sum(sigmas) == pytest.approx(0.25, abs=1e-12)
    # pieces travel at the characteristic speed of their left state
    for speed, left in zip(snap.speeds, snap.states):
        assert speed == pytest.approx(gas.eigen(left).lam(2), abs=1e-12)


def test_next_event_collision_of_opposite_contacts():
    lin = LinearModel([[-1.0, 0.0], [0.0, 1.0]])
    r1, r2 = lin.eigen(None).r(1), lin.eigen(None).r(2)
    left = np.zeros(2)
    mid = left + 0.1 * r2           # family-2 contact first (moves right)
    right = mid + 0.1 * r1          # family-1 contact second (moves left)
    prof = profile_from_jumps(-2.0, 3.0, left, [(0.0, mid), (1.0, right)])
    sim = Simulation(lin, prof, 0.1)
    ev = sim.next_event()
    assert ev.kind == "collision"
    assert ev.time == pytest.approx(0.5)
    assert ev.x == pytest.approx(0.5)


def test_next_event_boundary_exit():
    lin = LinearModel([[-1.0, 0.0], [0.0, 1.0]])
    r2 = lin.eigen(None).r(2)
    prof = profile_from_jumps(0.0, 1.0, np.zeros(2), [(0.25, 0.1 * r2)])
    sim = Simulation(lin, prof, 0.1)
    ev = sim.next_event()
    assert ev.kind == "exit_b"
    assert ev.time == pytest.approx(0.75)   # (b - x0) / speed


def test_same_family_shock_merge_emits_opposite_shock(gas):
    sa, sb = -0.06, -0.05
    u1 = shock_curve(gas, U0, 1, sa).state
    u2 = shock_curve(gas, u1, 1, sb).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.9, u1), (0.91, u2)])
    sim = Simulation(gas, prof, 0.05)
    ev = sim.next_event()
    assert ev.kind == "collision"
    sim.advance_to(ev.time)
    rec = [r for r in sim.records if r.kind == "collision"][0]
    out = dict(zip(rec.out_families, rec.out_sigmas))
    assert out[1] == pytest.approx(sa + sb, abs=1e-4)
    assert out[2] < 0
    predicted = PRODUCTION * sa * sb * (sa + sb)
    assert out[2] == pytest.approx(predicted, rel=0.25)
    # merged wave keeps the smaller generation, the new family starts at 2
    new = dict(zip(sim.now.families, sim.now.generations))
    assert new == {1: 1, 2: 2}


def test_shock_absorbing_same_family_rarefaction_emits_rarefaction(gas):
    ss, sr = -0.1, 0.04
    u1 = shock_curve(gas, U0, 1, ss).state
    u2 = lax_curve(gas, u1, 1, sr).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.9, u1), (0.905, u2)])
    sim = Simulation(gas, prof, 0.1)
    sim.advance_to(5.0)
    rec = [r for r in sim.records if r.kind == "collision"][0]
    out = dict(zip(rec.out_families, rec.out_sigmas))
    kinds = dict(zip(rec.out_families, rec.out_kinds))
    assert out[1] == pytest.approx(ss + sr, abs=1e-4)
    assert out[2] > 0
    assert kinds[2] == "rarefaction"
    predicted = PRODUCTION * sr * ss * (ss + sr)
    assert out[2] == pytest.approx(predicted, rel=0.25)


def test_boundary_exit_is_absorbing(gas):
    cp = shock_curve(gas, U0, 1, -0.1)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    sim.advance_to(5.0)
    assert sim.now.n_fronts == 0
    assert [r.kind for r in sim.records] == ["exit_a"]
    # the state that stays behind is the right side of the leaving front
    assert np.allclose(sim.trace("a"), cp.state)
    assert np.allclose(sim.trace("b"), cp.state)


def test_advance_logs_exactly_one_interaction(gas):
    sa, sb = -0.06, -0.05
    u1 = shock_curve(gas, U0, 1, sa).state
    u2 = shock_curve(gas, u1, 1, sb).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.9, u1), (0.91, u2)])
    sim = Simulation(gas, prof, 0.05)
    ev = sim.next_event()
    before = len(sim.records)
    sim.advance_to(ev.time + 1e-6)
    assert len(sim.records) == before + 1
    assert sorted(sim.now.families) == [1, 2]


def test_injection_of_trace_is_a_no_op(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    new = sim.inject_boundary_riemann("b", sim.trace("b"))
    assert new == []
    assert sim.now.n_fronts == 0


def test_injection_of_split_state_sends_low_families_only(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.05)
    target = np.array([1.04, 0.02])
    split = split_boundary_pair(gas, sim.trace("b"), target)
    new_ids = sim.inject_boundary_riemann("b", split.state)
    assert new_ids
    snap = sim.now
    injected = np.isin(snap.ids, new_ids)
    assert all(snap.families[injected] <= gas.p)
    assert all(snap.generations[injected] == 1)
    assert sum(snap.sigmas[injected]) == pytest.approx(
        float(split.sigmas[0]), abs=1e-8)


def test_injection_of_wrong_side_state_is_rejected(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    bad_outer = lax_curve(gas, sim.trace("b"), 2, -0.05).state
    with pytest.raises(ContractViolationError):
        sim.inject_boundary_riemann("b", bad_outer)


def test_functionals_empty(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    assert sim.glimm_functionals() == (0.0, 0.0, 0.0)


def test_functionals_non_approaching_pair(gas):
    # 1-shock on the left, 2-rarefaction piece to its right: they separate
    u1 = shock_curve(gas, U0, 1, -0.2).state
    u2 = lax_curve(gas, u1, 2, 0.1).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.2)
    V, Q, _ = sim.glimm_functionals()
    assert V == pytest.approx(0.3, abs=1e-9)
    assert Q == 0.0


def test_functionals_approaching_same_family(gas):
    u1 = shock_curve(gas, U0, 1, -0.1).state
    u2 = shock_curve(gas, u1, 1, -0.2).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.3)
    V, Q, _ = sim.glimm_functionals()
    assert V == pytest.approx(0.3, abs=1e-9)
    assert Q == pytest.approx(0.02, abs=1e-9)


def test_wave_measures_single_shock(gas):
    u1 = shock_curve(gas, U0, 1, -0.2).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, u1)])
    sim = Simulation(gas, prof, 0.1)
    m = wave_measures(sim.now)
    assert m.mass(1, -1) == pytest.approx(0.2, abs=1e-10)
    assert m.mass(1, +1) == 0.0
    assert m.mass(2) == pytest.approx(0.0, abs=1e-10)


def test_wave_measures_fan_pieces(gas):
    cp = lax_curve(gas, U0, 2, 0.3)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    m = wave_measures(sim.now)
    assert m.mass(2, +1) == pytest.approx(0.3, abs=1e-9)
    assert m.mass(2, -1) == pytest.approx(0.0, abs=1e-10)


def test_wave_measures_match_construction(gas):
    u1 = lax_curve(gas, U0, 1, -0.12).state
    u2 = lax_curve(gas, u1, 2, 0.07).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.3, u1), (0.7, u2)])
    sim = Simulation(gas, prof, 0.2)
    m = wave_measures(sim.now)
    assert m.mass(1, -1) == pytest.approx(0.12, abs=1e-8)
    assert m.mass(2, +1) == pytest.approx(0.07, abs=1e-8)


def _cascade(gas_slow, n=15, budget=0.05, eps=0.01, horizon=25.0):
    from fronttrack.analysis import dense_initial_data
    prof = dense_initial_data(gas_slow, n, -budget, (0.0, 0.13),
                              base_state=[1.0, 0.98], level_decay=8.0)
    sim = Simulation(gas_slow, prof, eps)
    sim.advance_to(horizon)
    return sim


def test_functionals_evaluated_once_per_event(gas_slow, monkeypatch):
    calls = []
    original = Simulation.glimm_functionals

    def counted(self):
        calls.append(1)
        return original(self)
    monkeypatch.setattr(Simulation, "glimm_functionals", counted)
    sim = _cascade(gas_slow, horizon=5.0)
    assert len(sim.records) >= 10
    assert len(calls) == len(sim.records) + 1

    def v_and_q(snap):
        # V and Q recomputed pair by pair from a history snapshot
        sig = np.abs(snap.sigmas)
        V = float(np.sum(sig))
        Q = 0.0
        for i in range(snap.n_fronts):
            for j in range(i + 1, snap.n_fronts):
                fi, fj = snap.families[i], snap.families[j]
                both_rar = snap.kinds[i] == snap.kinds[j] == "rarefaction"
                if fi > fj or (fi == fj and not both_rar):
                    Q += sig[i] * sig[j]
        return V, Q

    assert len(sim.history) == len(sim.records) + 1
    for k, rec in enumerate(sim.records):
        V0, Q0 = v_and_q(sim.history[k])
        V1, Q1 = v_and_q(sim.history[k + 1])
        assert abs(rec.dV - (V1 - V0)) <= 1e-12
        assert abs(rec.dQ - (Q1 - Q0)) <= 1e-12


def test_wave_measures_match_riemann_resolve_of_every_jump(gas_slow):
    sim = _cascade(gas_slow)
    for snap in sim.history:
        # reference: resolve every jump of the profile into its waves
        ref = np.zeros((snap.n_fronts, gas_slow.n))
        for j in range(snap.n_fronts):
            sol = solve_riemann(gas_slow, snap.states[j], snap.states[j + 1])
            for wave in sol.waves:
                ref[j, wave.family - 1] += wave.sigma
        m = wave_measures(snap)
        for family in range(1, gas_slow.n + 1):
            xs, sizes = m.atoms(family)
            at = snap.families == family
            assert np.array_equal(xs, snap.xs[at])
            assert np.max(np.abs(sizes - ref[at, family - 1]),
                          initial=0.0) <= 1e-10
            assert np.max(np.abs(ref[~at, family - 1]), initial=0.0) <= 1e-10


def test_functional_history_tv_is_snapshot_tv(gas_slow):
    sim = _cascade(gas_slow)
    assert len(sim.functional_history) == len(sim.history)
    for (_t, _V, _Q, tv), snap in zip(sim.functional_history, sim.history):
        assert tv == snap.tv()


def test_advance_to_snapshot_unchanged_by_later_events(gas):
    # a 2-shock and a 1-shock that approach each other
    u1 = lax_curve(gas, U0, 2, -0.1).state
    u2 = lax_curve(gas, u1, 1, -0.1).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.02)
    snap = sim.advance_to(0.02)
    before = {name: np.copy(getattr(snap, name)) for name in (
        "ids", "xs", "families", "sigmas", "speeds", "generations", "states")}
    time, kinds, n_records = snap.time, snap.kinds, len(sim.records)
    sim.advance_to(0.3)
    assert len(sim.records) > n_records
    target = np.array([1.04, 0.02])
    sim.inject_boundary_riemann(
        "b", split_boundary_pair(gas, sim.trace("b"), target).state)
    sim.inject_boundary_riemann(
        "a", split_boundary_pair_reverse(gas, sim.trace("a"), target).state)
    sim.advance_to(1.0)
    assert (snap.time, snap.kinds) == (time, kinds)
    for name, values in before.items():
        assert np.array_equal(getattr(snap, name), values), name


def test_upsilon_monotone_on_cascade(gas_slow):
    sim = _cascade(gas_slow)
    c0 = calibrate_interaction_constant(gas_slow, n_samples=80, seed=1)
    ok, worst, n_checked = check_upsilon(sim, c0, 10 * sim.eps)
    assert n_checked >= 5
    assert ok, f"worst increment {worst}"


def test_interactions_emit_at_most_n_families(gas_slow):
    sim = _cascade(gas_slow)
    for rec in sim.records:
        if rec.kind == "collision":
            assert len(set(rec.out_families)) <= gas_slow.n


def test_tv_controlled_by_initial_potential(gas_slow):
    sim = _cascade(gas_slow)
    t0, V0, Q0, TV0 = sim.functional_history[0]
    for _t, _V, _Q, tv in sim.functional_history:
        assert tv <= TV0 + 1.0 * Q0 + 1e-12


def test_conservation_between_boundary_flux_ledgers(gas):
    # mixed shock + fanned rarefaction data, no injections
    u1 = lax_curve(gas, U0, 1, -0.15).state
    u2 = lax_curve(gas, u1, 2, 0.2).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.35, u1), (0.65, u2)])
    sim = Simulation(gas, prof, 0.02)
    state_int0 = sim.now.profile().integral()
    flux0 = sim.boundary_flux_integral.copy()
    sim.advance_to(0.4)
    state_int1 = sim.now.profile().integral()
    flux1 = sim.boundary_flux_integral.copy()
    V0 = sim.functional_history[0][1]
    defect = state_int1 - state_int0 - ((flux1[0] - flux0[0])
                                        - (flux1[1] - flux0[1]))
    assert np.max(np.abs(defect)) <= sim.eps * V0 * 0.4 + 1e-9


def test_state_reconstruction_from_history(gas):
    cp = shock_curve(gas, U0, 1, -0.1)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    sim.advance_to(0.3)
    x_front = 0.5 + cp.speed * 0.2
    assert np.allclose(sim.snapshot_at(0.2).profile()(x_front - 0.01), U0)
    assert np.allclose(sim.snapshot_at(0.2).profile()(x_front + 0.01), cp.state)
    snap = sim.snapshot_at(0.2)
    assert snap.xs[0] == pytest.approx(x_front)


# -- the O(k) engine against the pairwise and looping references ---------------


def pairwise_functionals(snap):
    """V, Q over all k^2 pairs, and TV from the front jumps."""
    k = snap.n_fronts
    if k == 0:
        return 0.0, 0.0, 0.0
    sig = np.abs(snap.sigmas)
    fam = snap.families
    rar = np.array([kind == "rarefaction" for kind in snap.kinds])
    V = float(np.sum(sig))
    i, j = np.triu_indices(k, 1)
    approaching = (fam[i] > fam[j]) | ((fam[i] == fam[j]) & ~(rar[i] & rar[j]))
    Q = float(np.sum(sig[i] * sig[j] * approaching))
    # the jump of front j is states[j + 1] - states[j]
    TV = float(np.sum(np.linalg.norm(np.diff(snap.states, axis=0), axis=1)))
    return V, Q, TV


def front_lists(n):
    front = st.tuples(
        st.integers(1, n),
        st.floats(-0.3, 0.3, allow_subnormal=False),
        st.sampled_from(["shock", "rarefaction", "contact"]),
        st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return st.lists(front, max_size=40)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prefix_sum_functionals_match_pairwise(n, data):
    model = LinearModel(np.diag({2: [-1.0, 1.0], 3: [-1.0, 0.5, 1.0]}[n]))
    sim = Simulation(model, constant_profile(0.0, 1.0, np.zeros(n)), 0.1)
    fronts = data.draw(front_lists(n))
    k = len(fronts)
    states = np.cumsum([np.zeros(n)] + [np.array(d) for *_, d in fronts], axis=0)
    sim.now = Snapshot(
        model, 0.0, 0.0, 1.0, np.arange(k), np.full(k, 0.5),
        np.array([f[0] for f in fronts], dtype=int),
        np.array([f[1] for f in fronts], dtype=float), np.zeros(k),
        np.ones(k, dtype=int), tuple(f[2] for f in fronts), states)
    V, Q, TV = sim.glimm_functionals()
    V_ref, Q_ref, TV_ref = pairwise_functionals(sim.now)
    assert V == V_ref
    assert TV == TV_ref
    assert abs(Q - Q_ref) <= 1e-12 * max(1.0, Q_ref)


def loop_next_event(sim):
    """Earliest collision or exit found by a loop over every front; also
    returns how many candidates tied with the earliest within TIME_TIE."""
    k = sim.now.n_fronts
    if k == 0:
        return None, 0
    xs = sim.now.xs
    sp = sim.now.speeds
    candidates = []
    for j in range(k - 1):
        ds = sp[j] - sp[j + 1]
        if ds > 1e-14:
            dt = max((xs[j + 1] - xs[j]) / ds, 0.0)
            candidates.append((sim.time + dt, xs[j] + sp[j] * dt,
                               "collision", j, j + 1))
    for j in range(k):
        if sp[j] < -1e-14:
            dt = max((sim.a - xs[j]) / sp[j], 0.0)
            candidates.append((sim.time + dt, sim.a, "exit_a", j, j))
        elif sp[j] > 1e-14:
            dt = max((sim.b - xs[j]) / sp[j], 0.0)
            candidates.append((sim.time + dt, sim.b, "exit_b", j, j))
    if not candidates:
        return None, 0
    t_min = min(c[0] for c in candidates)
    near = [c for c in candidates if c[0] <= t_min + TIME_TIE]
    near.sort(key=lambda c: (c[1], c[2] != "collision"))
    x0, kind0 = near[0][1], near[0][2]
    if kind0 != "collision":
        j = near[0][3]
        return Event(near[0][0], x0, kind0, j, j), len(near)
    group = [c for c in near
             if c[2] == "collision" and abs(c[1] - x0) <= SPACE_TIE]
    lo = min(c[3] for c in group)
    hi = max(c[4] for c in group)
    t_ev = min(c[0] for c in group)
    return Event(t_ev, x0, "collision", lo, hi), len(near)


@pytest.fixture
def checked_next_event(monkeypatch):
    """Make every next_event call assert equality with the loop; yields the
    list of (event, tied candidates) it saw."""
    seen = []
    original = Simulation.next_event

    def checked(self):
        ref, ties = loop_next_event(self)
        ev = original(self)
        assert ev == ref
        seen.append((ev, ties))
        return ev
    monkeypatch.setattr(Simulation, "next_event", checked)
    return seen


def test_next_event_matches_loop_on_cascade(gas_slow, checked_next_event):
    sim = _cascade(gas_slow)
    assert len(checked_next_event) == len(sim.records) + 1


def contact_profile(model, a, b, jumps):
    """Profile whose jumps (x, family) each carry one contact of size 0.1."""
    r = model.eigen(None).right
    states = [np.zeros(model.n)]
    for _, family in jumps:
        states.append(states[-1] + 0.1 * r[:, family - 1])
    return profile_from_jumps(a, b, states[0],
                              [(x, u) for (x, _), u in zip(jumps, states[1:])])


@pytest.mark.parametrize("x0", [0.0, 0.45])
def test_next_event_matches_loop_on_three_front_meeting(x0, checked_next_event):
    # contacts of speeds 1, 0.3 and -0.7 meet at (t, x) = (0.1, x0 + 0.1) up
    # to roundoff: from x0 = 0 the two collision points are 1.4e-17 apart,
    # from x0 = 0.45 they coincide and the left collision is 4e-17 later
    lin = LinearModel(np.diag([-0.7, 0.3, 1.0]))
    T = 0.1
    X = x0 + T
    jumps = [(x0, 3), (X - 0.3 * T, 2), (X + 0.7 * T, 1)]
    sim = Simulation(lin, contact_profile(lin, -1.0, 2.0, jumps), 0.1)
    sim.advance_to(10.0)
    ev, ties = checked_next_event[0]
    assert (ev.kind, ev.lo, ev.hi, ties) == ("collision", 0, 2, 2)
    assert sim.now.n_fronts == 0


def test_next_event_matches_loop_on_collision_at_boundary(checked_next_event):
    # contacts of speeds 1 and 0.5 from x = 0.5 and 0.75 reach each other
    # and x = b = 1 at t = 0.5 exactly: the collision beats both exits
    lin = LinearModel(np.diag([-1.0, 0.5, 1.0]))
    sim = Simulation(lin, contact_profile(lin, 0.0, 1.0, [(0.5, 3), (0.75, 2)]),
                     0.1)
    sim.advance_to(5.0)
    ev, ties = checked_next_event[0]
    assert (ev.kind, ev.time, ev.x, ties) == ("collision", 0.5, 1.0, 3)


def test_next_event_matches_loop_on_mirrored_gas_jumps(checked_next_event):
    # jumps of the wide gas box as in a dense evolve, mirrored about x = 1/2
    # with v -> -v: every interaction has a mirror image at the same time
    gas = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))
    w = np.array([-2.0, 2.0])                 # (v - 2 sqrt(rho), v + 2 sqrt(rho))
    half = []
    for signs in ([1, -1], [-1, -1], [1, 1], [-1, 1]):
        w = w + 0.08 * np.array(signs)
        s = 0.5 * (w[1] - w[0])
        half.append(np.array([(0.5 * s) ** 2, 0.5 * (w[0] + w[1])]))
    mirror = [np.array([u[0], -u[1]]) for u in half]
    left = np.array([1.0, 0.0])
    xs = [0.1, 0.2, 0.3, 0.4]
    jumps = list(zip(xs, half)) + [(0.5, mirror[-1])]
    jumps += [(1.0 - x, u) for x, u in zip(xs[::-1][:-1], mirror[::-1][1:])]
    jumps += [(0.9, left)]
    sim = Simulation(gas, profile_from_jumps(0.0, 1.0, left, jumps), 0.01)
    sim.advance_to(0.15)
    assert len(sim.records) >= 100
    assert sum(ties > 1 for _, ties in checked_next_event) >= 20
