import copy
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.control import steer_constant_states
from fronttrack.curves import lax_curve, shock_curve
from fronttrack.models import Box, GasModel, LinearModel
from fronttrack.profiles import constant_profile, profile_from_jumps
from fronttrack.riemann import (Wave, solve_riemann, split_boundary_pair,
                               split_boundary_pair_reverse)
from fronttrack.scenarios import build_initial, build_model
from fronttrack.tracking import (
    SPACE_TIE, TIME_TIE, Event, Simulation, Snapshot,
    calibrate_interaction_constant, check_upsilon,
)

from references import LINEAR3, wave_mass

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


@pytest.mark.parametrize("eps", [0.0, -0.01, float("nan")])
def test_eps_fronts_must_be_positive(gas, eps):
    # a NaN eps would fail every "sigma > eps" test and fan no rarefaction
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, lax_curve(gas, U0, 2, 0.2).state)])
    with pytest.raises(ValueError, match="eps_fronts must be positive"):
        Simulation(gas, prof, eps)


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
    fronts = sim.fronts
    out = dict(zip(fronts["families"][rec.out_ids], fronts["sigmas"][rec.out_ids]))
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
    fronts = sim.fronts
    out = dict(zip(fronts["families"][rec.out_ids], fronts["sigmas"][rec.out_ids]))
    kinds = dict(zip(fronts["families"][rec.out_ids], fronts["kinds"][rec.out_ids]))
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
    for side in "ba":
        new, outer = sim.inject_boundary_riemann(side, sim.trace(side))
        assert new == []
        assert outer.tolist() == U0.tolist()
    assert sim.now.n_fronts == 0


def test_injection_sends_the_entering_waves_of_its_split(gas):
    for (model, u0, target), (side, split) in itertools.product(
            ((gas, U0, [1.04, 0.02]), (LINEAR3, np.zeros(3), [0.3, -0.2, 0.1])),
            (("b", split_boundary_pair), ("a", split_boundary_pair_reverse))):
        # eps above every strength: no rarefaction is fanned into pieces;
        # LINEAR3 has p = 2, so its x = b split enters two families
        sim = Simulation(model, constant_profile(0.0, 1.0, u0), 1.0)
        want = split(model, sim.trace(side), target)
        new, outer = sim.inject_boundary_riemann(side, target)
        assert outer.tolist() == want.state.tolist()
        enters = (range(1, model.p + 1) if side == "b"
                  else range(model.p + 1, model.n + 1))
        assert all(want.sigmas[f - 1] != 0.0 for f in enters)
        fronts = sim.fronts
        assert fronts["families"][new].tolist() == list(enters)
        assert fronts["sigmas"][new].tolist() == [
            want.sigmas[f - 1] for f in enters]
        assert all(fronts["generations"][new] == 1)


def test_functionals_empty(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    assert sim.functional_history[-1][1:] == (0.0, 0.0, 0.0)


def test_functionals_non_approaching_pair(gas):
    # 1-shock on the left, 2-rarefaction piece to its right: they separate
    u1 = shock_curve(gas, U0, 1, -0.2).state
    u2 = lax_curve(gas, u1, 2, 0.1).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.2)
    V, Q, _ = sim.functional_history[-1][1:]
    assert V == pytest.approx(0.3, abs=1e-9)
    assert Q == 0.0


def test_functionals_approaching_same_family(gas):
    u1 = shock_curve(gas, U0, 1, -0.1).state
    u2 = shock_curve(gas, u1, 1, -0.2).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.3)
    V, Q, _ = sim.functional_history[-1][1:]
    assert V == pytest.approx(0.3, abs=1e-9)
    assert Q == pytest.approx(0.02, abs=1e-9)


def test_wave_measures_single_shock(gas):
    u1 = shock_curve(gas, U0, 1, -0.2).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, u1)])
    sim = Simulation(gas, prof, 0.1)
    assert wave_mass(sim.now, 1, -1) == pytest.approx(0.2, abs=1e-10)
    assert wave_mass(sim.now, 1, +1) == 0.0
    assert wave_mass(sim.now, 2) == pytest.approx(0.0, abs=1e-10)


def test_wave_measures_fan_pieces(gas):
    cp = lax_curve(gas, U0, 2, 0.3)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    assert wave_mass(sim.now, 2, +1) == pytest.approx(0.3, abs=1e-9)
    assert wave_mass(sim.now, 2, -1) == pytest.approx(0.0, abs=1e-10)


def test_wave_measures_match_construction(gas):
    u1 = lax_curve(gas, U0, 1, -0.12).state
    u2 = lax_curve(gas, u1, 2, 0.07).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.3, u1), (0.7, u2)])
    sim = Simulation(gas, prof, 0.2)
    assert wave_mass(sim.now, 1, -1) == pytest.approx(0.12, abs=1e-8)
    assert wave_mass(sim.now, 2, +1) == pytest.approx(0.07, abs=1e-8)


def _cascade(gas_slow, n=15, budget=0.05, eps=0.01, horizon=25.0):
    from fronttrack.analysis import dense_initial_data
    prof = dense_initial_data(gas_slow, n, -budget, (0.0, 0.13),
                              base_state=[1.0, 0.98], level_decay=8.0)
    sim = Simulation(gas_slow, prof, eps)
    sim.advance_to(horizon)
    return sim


def test_functionals_evaluated_once_per_event(gas_slow):
    sim = _cascade(gas_slow, horizon=5.0)
    assert len(sim.records) >= 10
    assert len(sim.functional_history) == len(sim.records) + 1
    assert len(sim.history) == len(sim.records) + 1
    for k, rec in enumerate(sim.records):
        V0, Q0, _ = pairwise_functionals(sim.history[k])
        V1, Q1, _ = pairwise_functionals(sim.history[k + 1])
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
        # each front is the one atom of its family at its position
        for family in range(1, gas_slow.n + 1):
            at = snap.families == family
            assert np.max(np.abs(snap.sigmas[at] - ref[at, family - 1]),
                          initial=0.0) <= 1e-10
            assert np.max(np.abs(ref[~at, family - 1]), initial=0.0) <= 1e-10


def test_functional_history_tv_is_snapshot_tv(gas_slow):
    sim = _cascade(gas_slow)
    assert len(sim.functional_history) == len(sim.history)
    for (_t, _V, _Q, tv), snap in zip(sim.functional_history, sim.history):
        ref = snap.tv()
        assert abs(tv - ref) <= 1e-12 * max(1.0, ref)


def test_advance_to_snapshot_unchanged_by_later_events(gas):
    # a 2-shock and a 1-shock that approach each other
    u1 = lax_curve(gas, U0, 2, -0.1).state
    u2 = lax_curve(gas, u1, 1, -0.1).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.02)
    snap = sim.advance_to(0.02)
    before = {name: np.copy(getattr(snap, name)) for name in (
        "ids", "xs", "families", "sigmas", "speeds", "generations", "kinds",
        "states")}
    time, q, n_records = snap.time, snap.q, len(sim.records)
    sim.advance_to(0.3)
    assert len(sim.records) > n_records
    target = np.array([1.04, 0.02])
    sim.inject_boundary_riemann("b", target)
    sim.inject_boundary_riemann("a", target)
    sim.advance_to(1.0)
    assert (snap.time, snap.q) == (time, q)
    for name, values in before.items():
        assert np.array_equal(getattr(snap, name), values), name


def test_upsilon_monotone_on_cascade(gas_slow):
    sim = _cascade(gas_slow)
    c0 = calibrate_interaction_constant(gas_slow)
    ok, worst, n_checked = check_upsilon(sim, c0, 10 * sim.eps)
    assert n_checked >= 5
    assert ok, f"worst increment {worst}"


def test_interactions_emit_at_most_n_families(gas_slow):
    sim = _cascade(gas_slow)
    for rec in sim.records:
        if rec.kind == "collision":
            assert len(set(sim.fronts["families"][rec.out_ids])) <= gas_slow.n


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


def test_snapshot_at_covers_only_the_simulated_times(gas):
    cp = shock_curve(gas, U0, 1, -0.1)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    sim.advance_to(0.3)
    for t in (0.0, 0.3, 0.3 + 0.5 * TIME_TIE):
        assert sim.snapshot_at(t).time == t
    # no profile before the start or after the simulated time
    for t in (-5.0, -1e-9, 0.3 + 1e-9, 50.0, float("nan")):
        with pytest.raises(ValueError, match="no snapshot"):
            sim.snapshot_at(t)


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


def drawn_waves(data, n, left):
    """Waves of a drawn front list, chained from the state ``left``."""
    waves = []
    for family, sigma, kind, jump in data.draw(front_lists(n)):
        right = left + np.array(jump)
        waves.append(Wave(family, sigma, kind, 0.0, 0.0, left, right))
        left = right
    return waves


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_running_potential_matches_pairwise(n, data):
    # a drawn front list spliced into the empty profile (no incoming
    # fronts), drawn replacements of drawn runs lo..hi, then a drawn run
    # removed (no outgoing fronts); eps 1 fans no wave, so every drawn
    # front keeps its kind
    model = LinearModel(np.diag({2: [-1.0, 1.0], 3: [-1.0, 0.5, 1.0]}[n]))
    sim = Simulation(model, constant_profile(0.0, 1.0, np.zeros(n)), 1.0)
    n_replaced = data.draw(st.integers(0, 3))
    for step in range(n_replaced + 2):
        k = sim.now.n_fronts
        lo = data.draw(st.integers(0, k))
        hi = data.draw(st.integers(lo, k))
        left = sim.now.states[lo]
        waves = drawn_waves(data, n, left) if step <= n_replaced else []
        sim._step(lo, hi, left, waves, 0.5, "collision")
        V, Q, TV = sim.functional_history[-1][1:]
        V_ref, Q_ref, TV_ref = pairwise_functionals(sim.now)
        assert abs(V - V_ref) <= 1e-12 * max(1.0, V_ref)
        assert abs(TV - TV_ref) <= 1e-12 * max(1.0, TV_ref)
        assert abs(Q - Q_ref) <= 1e-12 * max(1.0, Q_ref)


def dense_gas_jumps(seed, n_jumps=20, size=0.08):
    """Evenly spaced jumps on (0, 1) that move each Riemann coordinate of
    the K = 1, gamma = 2 gas by +-size, once up and once down in each pair
    of jumps, in a seeded order: the initial data of a dense evolve."""
    rng = np.random.default_rng(seed)
    signs = [np.concatenate([rng.permutation([1.0, -1.0])
                             for _ in range(n_jumps // 2)]) for _ in range(2)]
    w = np.array([-2.0, 2.0]) + size * np.cumsum(signs, axis=1).T
    states = [np.array([(0.25 * (w2 - w1)) ** 2, 0.5 * (w1 + w2)])
              for w1, w2 in w]
    return [((k + 0.5) / n_jumps, u) for k, u in enumerate(states)]


def assert_history_functionals_are_pairwise(sim):
    """Every history snapshot carries the pairwise Q as its q, and the
    functional history carries the snapshot's time and q and, within
    roundoff, the V and TV of the snapshot's columns."""
    functionals = sim.functional_history
    assert len(functionals) == len(sim.history)
    for (t, V, Q, TV), snap in zip(functionals, sim.history):
        V_ref, Q_ref, TV_ref = pairwise_functionals(snap)
        assert (t, Q) == (snap.time, snap.q)
        assert abs(V - V_ref) <= 1e-12 * max(1.0, V_ref)
        assert abs(TV - TV_ref) <= 1e-12 * max(1.0, TV_ref)
        assert abs(snap.q - Q_ref) <= 1e-12 * max(1.0, Q_ref)


def test_running_potential_matches_pairwise_on_cascade(gas_slow):
    sim = _cascade(gas_slow)
    assert_history_functionals_are_pairwise(sim)


def dense_evolve():
    gas = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))
    prof = profile_from_jumps(0.0, 1.0, np.array([1.0, 0.0]), dense_gas_jumps(2))
    sim = Simulation(gas, prof, 0.01)
    sim.advance_to(0.1)
    return sim


def test_running_potential_matches_pairwise_on_dense_evolve():
    sim = dense_evolve()
    assert len(sim.records) >= 500
    assert_history_functionals_are_pairwise(sim)


def test_collisions_keep_the_cell_right_of_their_fan_bitwise(monkeypatch):
    # the gas solve ends its last wave at ur itself, so a collision that
    # emits a family-2 wave leaves the cell right of its fan as it was
    resolve = Simulation._resolve
    kept = []

    def checked_resolve(self, event):
        right = self.now.states[event.hi + 1].tobytes()
        resolve(self, event)
        record = self.records[-1]
        if event.kind == "collision" and 2 in self.fronts["families"][record.out_ids]:
            kept.append(self.now.states[event.lo + len(record.out_ids)].tobytes()
                        == right)

    monkeypatch.setattr(Simulation, "_resolve", checked_resolve)
    dense_evolve()
    assert len(kept) >= 100
    assert all(kept)


def linear_evolve():
    model = LinearModel(np.diag([-1.0, 1.0]))
    jumps = [(x, np.array([np.sin(7 * x), np.cos(5 * x)]))
             for x in np.linspace(0.05, 0.95, 12)]
    sim = Simulation(model, profile_from_jumps(0.0, 1.0, np.zeros(2), jumps), 0.01)
    sim.advance_to(2.0)
    return sim


@pytest.mark.parametrize("run", [
    lambda: _cascade(GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                              ref_state=[1.0, 0.98], min_speed=0.002)),
    dense_evolve, linear_evolve,
], ids=["cascade", "dense_evolve", "linear_evolve"])
def test_rarefaction_mask_is_the_kinds(run):
    sim = run()
    assert len(sim.records) >= 40
    # the Riemann solver names the kinds: contacts on linear models, else
    # shocks for sigma < 0 and rarefactions for sigma > 0
    nonlinear = sim.model.kind != "linear"
    for snap in sim.history:
        assert [kind == "rarefaction" for kind in snap.kinds] == (
            nonlinear & (snap.sigmas > 0)).tolist()


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


# -- the history view and the event queue ----------------------------------------


def assert_same_snapshot(snap, ref):
    """Every field of two snapshots equal, arrays column by column, bit for
    bit."""
    for field in dataclasses.fields(Snapshot):
        a, b = getattr(snap, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            same = (a.tolist() == b.tolist() if b.dtype == object
                    else a.tobytes() == b.tobytes())
        else:
            same = np.float64(a).tobytes() == np.float64(b).tobytes()
        assert same, field.name


@pytest.fixture
def live_copies(monkeypatch):
    """Deep copies of each simulation's ``now``, taken when its constructor
    returns and after every recorded event, by simulation."""
    copies = {}
    init, step = Simulation.__init__, Simulation._step

    def copied_init(self, *args):
        init(self, *args)
        copies[self] = [copy.deepcopy(self.now)]

    def copied_step(self, lo, hi, left, waves, x, kind=None):
        new = step(self, lo, hi, left, waves, x, kind)
        if kind is not None:
            copies[self].append(copy.deepcopy(self.now))
        return new
    monkeypatch.setattr(Simulation, "__init__", copied_init)
    monkeypatch.setattr(Simulation, "_step", copied_step)
    return copies


def gas_steer():
    gas = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))
    return steer_constant_states(gas, U0, np.array([1.10, 0.08]), (0.0, 1.0),
                                 0.01, chain_step=0.05).sim


@pytest.mark.parametrize("run", [
    lambda: _cascade(GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                              ref_state=[1.0, 0.98], min_speed=0.002)),
    dense_evolve, linear_evolve, gas_steer,
], ids=["cascade", "dense_evolve", "linear_evolve", "gas_steer"])
def test_history_rebuilds_the_live_profiles_bitwise(run, live_copies):
    sim = run()
    assert len(sim.records) >= 16
    if run is gas_steer:
        assert {"inject_a", "inject_b"} <= {rec.kind for rec in sim.records}
    ref = live_copies[sim]
    assert len(sim.history) == len(ref) == len(sim.records) + 1
    for snap, live in zip(sim.history, ref):
        assert_same_snapshot(snap, live)


@pytest.mark.parametrize("run", [
    lambda: _cascade(GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                              ref_state=[1.0, 0.98], min_speed=0.002)),
    dense_evolve, linear_evolve, gas_steer,
], ids=["cascade", "dense_evolve", "linear_evolve", "gas_steer"])
def test_records_name_the_fronts_of_the_history(run):
    # a record's incoming fronts are those the snapshot before it loses and
    # its outgoing fronts those the one after it gains, and the front table
    # holds their columns bit for bit
    sim = run()
    fronts = sim.fronts
    assert len(sim.records) >= 16
    assert all(not col.flags.writeable for col in fronts.values())
    for k, rec in enumerate(sim.records):
        before, after = sim.history[k], sim.history[k + 1]
        lost = set(before.ids.tolist()) - set(after.ids.tolist())
        gained = set(after.ids.tolist()) - set(before.ids.tolist())
        assert rec.in_ids == [i for i in before.ids.tolist() if i in lost]
        assert rec.out_ids == [i for i in after.ids.tolist() if i in gained]
        for ids, snap in ((rec.in_ids, before), (rec.out_ids, after)):
            where = {uid: j for j, uid in enumerate(snap.ids.tolist())}
            js = [where[uid] for uid in ids]
            for name in ("families", "sigmas", "speeds", "generations"):
                col = getattr(snap, name)[js]
                assert fronts[name][ids].tobytes() == col.tobytes(), name
            assert fronts["kinds"][ids].tolist() == snap.kinds[js].tolist()
            rights = snap.states[[j + 1 for j in js]]
            assert fronts["rights"][ids].tobytes() == rights.tobytes()


@pytest.mark.parametrize("run", [dense_evolve, linear_evolve],
                         ids=["dense_evolve", "linear_evolve"])
def test_profile_holds_a_front_crossed_by_roundoff_at_the_one_before_it(run):
    # inside an instant cascade roundoff can leave a front a few ulps left
    # of the one before it; the snapshot keeps its xs, and its profile is
    # valid, bitwise the snapshot's where the fronts are in order
    sim = run()
    crossed = 0
    for snap in sim.history:
        xs = snap.xs.copy()
        prof = snap.profile()
        assert snap.xs.tobytes() == xs.tobytes()
        assert prof.values.tobytes() == snap.states.tobytes()
        if np.all(np.diff(xs) >= 0):
            assert prof.xs.tobytes() == xs.tobytes()
        else:
            crossed += 1
            assert np.all(np.diff(prof.xs) >= 0)
            assert 0 <= np.min(prof.xs - xs) and np.max(prof.xs - xs) <= 1e-12
    assert crossed >= 10


def test_history_slices_like_a_list():
    sim = linear_evolve()
    snaps = list(sim.history)
    assert len(snaps) >= 16
    pairs = list(zip(sim.history, sim.history[1:] + [None]))
    assert len(pairs) == len(snaps) and pairs[-1][1] is None
    for k in (slice(1, None), slice(None, -3), slice(-5, None, 2),
              slice(None, None, -1), slice(4, 2), slice(None)):
        got = sim.history[k]
        assert isinstance(got, list) and len(got) == len(snaps[k])
        for snap, ref in zip(got, snaps[k]):
            assert_same_snapshot(snap, ref)
    assert_same_snapshot(sim.history[-1], snaps[-1])


def test_history_builds_only_the_snapshots_it_returns(monkeypatch):
    sim = linear_evolve()
    snaps = list(sim.history)
    assert len(snaps) >= 16
    built = []
    snapshot = Simulation._snapshot

    def counted(self, *args):
        built.append(args)
        return snapshot(self, *args)

    monkeypatch.setattr(Simulation, "_snapshot", counted)
    for k in (slice(None, None, 5), slice(-2, 1, -7), slice(3, None, 4),
              slice(None, None, -1), slice(4, 2), slice(1, 2)):
        built.clear()
        got = sim.history[k]
        assert len(built) == len(got) == len(snaps[k])
        for snap, ref in zip(got, snaps[k]):
            assert_same_snapshot(snap, ref)
    for k in (0, 7, -1):
        built.clear()
        assert_same_snapshot(sim.history[k], snaps[k])
        assert len(built) == 1


def test_snapshot_at_an_event_time_shows_the_event():
    # contacts of speeds 1 and -1 from x = 1/4 and 3/4 cross at (t, x) =
    # (1/4, 1/2) exactly; a snapshot at t, or within TIME_TIE before it,
    # shows the crossed fronts, and one 2 TIME_TIE before it the first ones
    lin = LinearModel(np.diag([-1.0, 1.0]))
    sim = Simulation(lin, contact_profile(lin, 0.0, 1.0, [(0.25, 2), (0.75, 1)]),
                     0.1)
    sim.advance_to(0.5)
    before, after = sim.history[0], sim.history[1]
    assert (after.time, after.xs.tolist()) == (0.25, [0.5, 0.5])
    for t, snap in ((0.25, after), (0.25 - 0.5 * TIME_TIE, after),
                    (0.25 - 2 * TIME_TIE, before)):
        at = sim.snapshot_at(t)
        assert at.time == t
        assert at.ids.tolist() == snap.ids.tolist()
        assert np.array_equal(at.states, snap.states)
        assert np.array_equal(at.xs, snap.xs + snap.speeds * (t - snap.time))


SPLICE_STEPS = 30


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_history_replays_the_splice_log(data):
    # drawn splices of drawn runs lo..hi, one every 0.01 in time, enough to
    # cross several checkpoints of the live ids; the test keeps its own list
    # of the live ids after each step, and eps 1 fans no wave
    sim = Simulation(LinearModel(np.diag([-1.0, 1.0])),
                     constant_profile(0.0, 1.0, np.zeros(2)), 1.0)
    live, times = [[]], [0.0]
    for step in range(1, SPLICE_STEPS + 1):
        ids = live[-1]
        lo = data.draw(st.integers(0, len(ids)))
        hi = data.draw(st.integers(lo, len(ids)))
        sim._advance(0.01 * step)
        left = sim.now.states[lo]
        new, _ = sim._step(lo, hi, left, drawn_waves(data, 2, left), 0.5,
                           "collision")
        live.append(ids[:lo] + new + ids[hi:])
        times.append(sim.time)
    history = sim.history
    assert len(history) == len(live) == SPLICE_STEPS + 1
    replayed = list(history)
    for k, ids in enumerate(live):
        assert history[k].ids.tolist() == ids
        assert history[k - len(live)].ids.tolist() == ids
        assert sim.snapshot_at(times[k]).ids.tolist() == ids
        assert_same_snapshot(replayed[k], history[k])
    for _ in range(5):
        part = data.draw(st.slices(len(live)))
        assert [snap.ids.tolist() for snap in history[part]] == live[part]


def queue_audit(sim):
    """Check that every live candidate is queued with a key at or below its
    time, and that every other entry names a front no longer live, which
    cannot fire because ids are never reused; return how many there are."""
    snap, t = sim.now, sim.time
    ids, xs, sp = snap.ids.tolist(), snap.xs, snap.speeds
    due = {}
    for k, i in enumerate(ids):
        if abs(sp[k]) > 1e-14:
            wall = sim.a if sp[k] < 0.0 else sim.b
            due[i, i] = t + max((wall - xs[k]) / sp[k], 0.0)
        if k + 1 < len(ids) and sp[k] - sp[k + 1] > 1e-14:
            due[i, ids[k + 1]] = t + max((xs[k + 1] - xs[k]) / (sp[k] - sp[k + 1]),
                                         0.0)
    keys, dead = {}, 0
    for key, i, j in sim._queue:
        if (i, j) in due:
            keys[i, j] = min(key, keys.get((i, j), math.inf))
        else:
            assert i not in ids or j not in ids
            dead += 1
    for pair, time in due.items():
        assert keys[pair] <= time
    return dead


@pytest.mark.parametrize("jumps, stale", [
    # the 3-2 pair would meet at t = 4/7, but the 2-1 pair meets at t = 0.1
    # and takes front 1 from the queued collision of fronts 0 and 1
    ([(0.1, 3), (0.5, 2), (0.6, 1)], (0, 1)),
    # front 0 would leave at b at t = 1/2, but meets front 1 at t = 0.4/1.7
    ([(0.5, 3), (0.9, 1)], (0, 0)),
], ids=["queued_collision", "queued_exit"])
def test_splices_leave_no_stale_entry_that_can_fire(jumps, stale, monkeypatch,
                                                    checked_next_event):
    audits = []
    resolve = Simulation._resolve

    def audited(self, event):
        resolve(self, event)
        audits.append((queue_audit(self), {(i, j) for _, i, j in self._queue}))
    monkeypatch.setattr(Simulation, "_resolve", audited)
    lin = LinearModel(np.diag([-0.7, 0.3, 1.0]))
    sim = Simulation(lin, contact_profile(lin, 0.0, 1.0, jumps), 0.1)
    assert stale in {(i, j) for _, i, j in sim._queue}
    assert queue_audit(sim) == 0
    sim.advance_to(5.0)
    assert sim.records[0].kind == "collision"
    dead, queued = audits[0]
    assert stale in queued and stale[1] in sim.records[0].in_ids and dead >= 1
    assert sim.now.n_fronts == 0
    assert len(checked_next_event) == len(sim.records) + 1


def readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


def test_engine_memory_is_a_fifth_of_a_snapshot_per_event():
    # the tracemalloc peak of the engine alone, no writers, on the README
    # counterexample with initial.n = 255, against the column bytes of the
    # snapshots that the history view rebuilds: one stored per event would
    # hold them all
    config = readme_config()
    config["initial"]["n"] = 255
    model = build_model(config["model"])
    prof = build_initial(config["initial"], model, tuple(config["domain"]))
    tracemalloc.start()
    try:
        sim = Simulation(model, prof, config["epsilon"])
        sim.advance_to(config["horizon"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sim.history) == len(sim.records) + 1 == 5560
    stored = sum(getattr(snap, field.name).nbytes for snap in sim.history
                 for field in dataclasses.fields(Snapshot)
                 if isinstance(getattr(snap, field.name), np.ndarray))
    assert 5 * peak <= stored
