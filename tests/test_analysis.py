import numpy as np
import pytest

from fronttrack.analysis import (
    backward_characteristic, characteristic_spread, creation_events,
    dense_initial_data, density_series,
    kappa_trend, positive_wave_density, same_family_collision_compliance,
    shock_census, strongest_front, track_shock_strength,
)
from fronttrack.curves import lax_curve, shock_curve
from fronttrack.profiles import constant_profile, profile_from_jumps
from fronttrack.riemann import solve_riemann
from fronttrack.tracking import Simulation, wave_measures

U0 = np.array([1.0, 0.0])


# -- positive wave density ------------------------------------------------------


def test_density_zero_for_shock_only_profile(gas):
    prof = dense_initial_data(gas, 7, -0.05, (0.0, 1.0), base_state=U0)
    sim = Simulation(gas, prof, 0.01)
    rep = positive_wave_density(sim.now, 1, probe=(0.1, 0.9))
    assert rep.max_density == 0.0
    assert rep.total_mass == 0.0


def test_density_of_spread_fan_is_near_one(gas):
    # total positive strength 0.3 spread over the fan pieces; advance until
    # the fan occupies about 0.3 of space, then density should be about 1
    cp = lax_curve(gas, U0, 2, 0.3)
    prof = profile_from_jumps(0.0, 4.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.002)   # 150 pieces resolve the bins
    lam_lo = gas.eigen(U0).lam(2)
    lam_hi = cp.speed
    t = 0.3 / (lam_hi - lam_lo)      # fan width grows at the speed spread
    sim.advance_to(t)
    snap = sim.now
    width = snap.xs[-1] - snap.xs[0]
    rep = positive_wave_density(snap, 2, cells=8,
                                probe=(float(snap.xs[0]),
                                       float(snap.xs[-1]) + 1e-9))
    assert rep.total_mass == pytest.approx(0.3, abs=1e-9)
    assert rep.max_density == pytest.approx(0.3 / width, rel=0.10)


def test_kappa_stays_bounded_for_rarefaction_only_run(gas):
    # a centered fan spreads linearly, so t * max-density settles at the
    # reciprocal of the speed-per-strength rate, (gamma + 1)/4
    cp = lax_curve(gas, U0, 2, 0.3)
    prof = profile_from_jumps(0.0, 12.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.002)
    sim.advance_to(5.0)
    times = [2.0, 3.0, 4.0, 5.0]
    reps = density_series(sim, times, 2, cells=200, probe=(0.0, 12.0))
    slope, err = kappa_trend(reps)
    assert all(np.isfinite(r.kappa_hat) for r in reps)
    assert slope <= 0.0 + 2 * err
    for rep in reps:
        assert rep.kappa_hat == pytest.approx(4.0 / 3.0, rel=0.25)


# -- shock tracking ------------------------------------------------------------


def test_lone_shock_keeps_strength(gas):
    cp = shock_curve(gas, U0, 1, -0.15)
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.7, cp.state)])
    sim = Simulation(gas, prof, 0.1)
    sid = strongest_front(sim, 1)
    sim.advance_to(0.3)
    track = track_shock_strength(sim, sid)
    assert track.fate == "alive"
    assert track.min_ratio == pytest.approx(1.0)
    assert track.merges == []


def test_strength_dips_slightly_when_crossed_by_opposite_shock(gas):
    s2 = -0.02
    u1 = shock_curve(gas, U0, 2, s2).state        # 2-shock first (left)
    u2 = shock_curve(gas, u1, 1, -0.2).state      # 1-shock to its right
    prof = profile_from_jumps(0.0, 2.0, U0, [(0.4, u1), (0.6, u2)])
    sim = Simulation(gas, prof, 0.1)
    sid = strongest_front(sim, 1)
    sim.advance_to(2.0)
    track = track_shock_strength(sim, sid)
    assert track.fate in ("alive", "exited")
    assert 1.0 - 5.0 * abs(s2) <= track.min_ratio <= 1.0


def test_strength_grows_when_absorbing_same_family(gas):
    u1 = shock_curve(gas, U0, 1, -0.06).state
    u2 = shock_curve(gas, u1, 1, -0.05).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.9, u1), (0.91, u2)])
    sim = Simulation(gas, prof, 0.05)
    sid = strongest_front(sim, 1)
    sim.advance_to(0.5)
    track = track_shock_strength(sim, sid)
    assert len(track.merges) == 1
    assert track.samples[-1][2] > track.samples[0][2]
    assert track.min_ratio == pytest.approx(1.0)


# -- backward characteristics ---------------------------------------------------


def test_backward_characteristic_through_constant_state(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    sim.advance_to(0.4)
    path = backward_characteristic(sim, 2, 0.4, 0.5)
    assert not path.exited
    t = path.points[:, 0]
    x = path.points[:, 1]
    slopes = np.diff(x) / np.diff(t)
    assert np.allclose(slopes, gas.eigen(U0).lam(2), atol=1e-10)
    assert path.points[-1][0] == pytest.approx(0.0, abs=1e-12)


def test_backward_characteristic_refracts_once_at_opposite_shock(gas):
    cp = shock_curve(gas, U0, 2, -0.1)            # right-moving 2-shock
    prof = profile_from_jumps(0.0, 3.0, U0, [(0.8, cp.state)])
    sim = Simulation(gas, prof, 0.05)
    sim.advance_to(0.5)
    # a left-running 1-characteristic from ahead of the shock crosses it once
    path = backward_characteristic(sim, 1, 0.5, 0.9)
    assert not path.exited
    t = path.points[:, 0]
    x = path.points[:, 1]
    slopes = np.diff(x) / np.diff(t)
    distinct = [s for i, s in enumerate(slopes)
                if i == 0 or abs(s - slopes[i - 1]) > 1e-9]
    assert len(distinct) == 2


def test_same_family_characteristics_do_not_cross(gas_slow):
    prof = dense_initial_data(gas_slow, 15, -0.05, (0.0, 0.13),
                              base_state=[1.0, 0.98], level_decay=8.0)
    sim = Simulation(gas_slow, prof, 0.01)
    sim.advance_to(1.5)
    points = np.linspace(0.02, 0.12, 5)
    paths = [backward_characteristic(sim, 2, 1.5, float(x)) for x in points]
    samples = np.linspace(0.0, 1.5, 12)
    for pa, pb in zip(paths, paths[1:]):
        if pa.exited or pb.exited:
            continue
        gaps = [pb.position_at(s) - pa.position_at(s) for s in samples]
        assert all(g > 0 for g in gaps)


def test_spread_ratio_constant_solution(gas):
    sim = Simulation(gas, constant_profile(0.0, 1.0, U0), 0.1)
    sim.advance_to(0.3)
    rep = characteristic_spread(sim, 2, 0.4, 0.5, 0.3)
    assert np.allclose(rep.ratios, 1.0, atol=1e-10)


def test_spread_ratio_exceeds_one_through_rarefaction(gas):
    cp = lax_curve(gas, U0, 2, 0.2)
    prof = profile_from_jumps(0.0, 6.0, U0, [(0.5, cp.state)])
    sim = Simulation(gas, prof, 0.02)
    sim.advance_to(1.0)
    snap = sim.now
    lo, hi = snap.xs[0], snap.xs[-1]
    rep = characteristic_spread(sim, 2, lo - 0.05, hi + 0.05, 1.0)
    assert rep.max_ratio > 1.0
    assert np.isfinite(rep.max_ratio)


def test_spread_ratio_stable_under_accuracy_refinement(gas):
    cp = lax_curve(gas, U0, 2, 0.2)
    prof = profile_from_jumps(0.0, 6.0, U0, [(0.5, cp.state)])
    maxima = []
    for eps in (0.04, 0.02, 0.01):
        sim = Simulation(gas, prof, eps)
        sim.advance_to(1.0)
        snap = sim.now
        rep = characteristic_spread(sim, 2, snap.xs[0] - 0.05,
                                    snap.xs[-1] + 0.05, 1.0)
        maxima.append(rep.max_ratio)
    assert max(maxima) / min(maxima) < 1.5


# -- census ----------------------------------------------------------------------


def _counterexample_run(gas_slow, horizon=2.0):
    prof = dense_initial_data(gas_slow, 31, -0.05, (0.0, 0.13),
                              base_state=[1.0, 0.995], level_decay=8.0)
    sim = Simulation(gas_slow, prof, 0.01)
    sim.advance_to(horizon)
    return prof, sim


@pytest.fixture(scope="module")
def cascade(gas_slow):
    return _counterexample_run(gas_slow)


def test_census_initial_spacing(gas_slow, cascade):
    prof, sim = cascade
    reports = shock_census(sim, [0.0], probe=(0.0, 0.13),
                           strength_floor=1e-9)
    rep = reports[0]
    assert len(rep.positions[1]) == 31
    assert rep.largest_gap[1] == pytest.approx(0.13 / 32, abs=1e-12)
    assert rep.creation_count == 0


def test_census_creations_accumulate(cascade):
    _prof, sim = cascade
    reports = shock_census(sim, [0.5, 1.0, 1.5, 2.0], probe=(0.0, 0.13),
                           strength_floor=1e-9, creation_floor=1e-10)
    counts = [r.creation_count for r in reports]
    assert counts == sorted(counts)
    assert counts[-1] >= 10
    events = creation_events(sim, floor=1e-10)
    assert len(events) == counts[-1]


def test_census_profile_never_constant(cascade):
    prof, sim = cascade
    reports = shock_census(sim, [2.0], probe=(0.0, 0.13), strength_floor=1e-9)
    surviving = float(np.sum(reports[0].strengths[1]))
    assert reports[0].tv >= 0.5 * surviving > 0.0


def test_sign_compliance_on_cascade(cascade):
    _prof, sim = cascade
    n_events, n_ok, n_unresolved = same_family_collision_compliance(sim)
    assert n_events >= 10
    assert n_ok == n_events
    assert n_unresolved == 0


def test_creation_and_compliance_share_one_rule(cascade):
    """A creation is a compliant collision: an opposite-family output counts
    only when its magnitude exceeds the floor, also at exactly the floor."""
    _prof, sim = cascade
    outputs = [s for rec in sim.records
               if rec.kind == "collision" and len(rec.in_ids) >= 2
               and set(zip(rec.in_families, rec.in_kinds)) == {(1, "shock")}
               for f, s in zip(rec.out_families, rec.out_sigmas) if f == 2]
    at_floor = -outputs[0]
    assert at_floor > 0.0
    for floor in (0.0, 1e-11, 1e-6, at_floor):
        n_events, n_ok, n_unresolved = same_family_collision_compliance(
            sim, sign_floor=floor)
        assert len(creation_events(sim, floor=floor)) == n_ok
        assert n_ok + n_unresolved <= n_events
    # the output equal to the floor is unresolved, and so not a creation
    assert same_family_collision_compliance(sim, sign_floor=at_floor)[2] >= 1


def test_positive_mass_never_increases_across_interactions(gas):
    # shocks with a small same-family rarefaction wedged in: every
    # interaction must cancel positive mass, never create it (up to the
    # cubic production of the opposite family)
    u1 = lax_curve(gas, U0, 1, -0.12).state
    u2 = lax_curve(gas, u1, 1, +0.05).state
    u3 = lax_curve(gas, u2, 1, -0.08).state
    prof = profile_from_jumps(0.0, 1.0, U0,
                              [(0.85, u1), (0.87, u2), (0.89, u3)])
    sim = Simulation(gas, prof, 0.02)
    sim.advance_to(3.0)
    collisions = [r for r in sim.records if r.kind == "collision"]
    assert collisions
    times = [s.time for s in sim.history]
    for rec in collisions:
        idx = times.index(rec.time)
        before = wave_measures(sim.history[idx - 1])
        after = wave_measures(sim.history[idx])
        mass_before = sum(before.mass(f, +1) for f in (1, 2))
        mass_after = sum(after.mass(f, +1) for f in (1, 2))
        assert mass_after <= mass_before + 1e-6


def test_compressive_adjacency_diagnostic(gas):
    # rarefaction piece chased by a faster same-family shock flags the
    # focusing diagnostic; a pure shock merger does not
    u1 = lax_curve(gas, U0, 1, +0.05).state
    u2 = lax_curve(gas, u1, 1, -0.12).state
    prof = profile_from_jumps(0.0, 1.0, U0, [(0.85, u1), (0.87, u2)])
    sim = Simulation(gas, prof, 0.1)
    assert sim.now.compressive_pairs() == [0]

    v1 = lax_curve(gas, U0, 1, -0.06).state
    v2 = lax_curve(gas, v1, 1, -0.05).state
    prof2 = profile_from_jumps(0.0, 1.0, U0, [(0.85, v1), (0.87, v2)])
    sim2 = Simulation(gas, prof2, 0.1)
    assert sim2.now.compressive_pairs() == []


# -- initial data constructions ---------------------------------------------------


def test_dense_single_shock_is_centered(gas):
    prof = dense_initial_data(gas, 1, -0.05, (0.0, 1.0), base_state=U0)
    assert len(prof.xs) == 1
    assert prof.xs[0] == pytest.approx(0.5)
    sol = solve_riemann(gas, prof.values[0], prof.values[1])
    assert sol.sigma(1) == pytest.approx(-0.05, abs=1e-10)


def test_dense_shocks_classify_clean(gas):
    prof = dense_initial_data(gas, 15, -0.05, (0.0, 1.0), base_state=U0)
    total = 0.0
    for j in range(15):
        sol = solve_riemann(gas, prof.values[j], prof.values[j + 1])
        assert [w.family for w in sol.waves] == [1]
        assert sol.waves[0].kind == "shock"
        total += sol.sigma(1)
    assert total == pytest.approx(-0.05, abs=1e-10)
    sim = Simulation(gas, prof, 0.01)
    assert sim.now.n_fronts == 15
    m = wave_measures(sim.now)
    assert m.mass(1, +1) == 0.0
    assert m.mass(2) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 15, 31])
def test_dense_shock_gap_bound(gas, n):
    prof = dense_initial_data(gas, n, -0.02, (0.0, 1.0), base_state=U0)
    pts = np.concatenate(([0.0], prof.xs, [1.0]))
    largest = float(np.max(np.diff(pts)))
    assert largest <= 1.0 / np.ceil((n + 1) / 2) + 1e-12


def test_dense_strengths_decrease_with_level(gas):
    prof = dense_initial_data(gas, 7, -0.05, (0.0, 1.0), base_state=U0,
                              level_decay=4.0)
    sizes = {}
    for j in range(7):
        sol = solve_riemann(gas, prof.values[j], prof.values[j + 1])
        sizes[float(prof.xs[j])] = abs(sol.sigma(1))
    assert sizes[0.5] > sizes[0.25] == pytest.approx(sizes[0.75], rel=1e-6)
    assert sizes[0.25] > sizes[0.125]
