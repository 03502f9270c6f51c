import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fronttrack import curves, riemann
from fronttrack.curves import lax_curve
from fronttrack.errors import (
    SOLVER_ERRORS, ConvergenceError, DomainError, RadiusError,
)
from fronttrack.models import Box, GasModel, LinearModel
from fronttrack.profiles import profile_from_jumps
from fronttrack.riemann import (
    DELTA_RIEMANN, RESIDUAL_TOL, _coords, _solution_from_sigmas, compose_waves,
    solve_riemann, split_boundary_pair, split_boundary_pair_reverse,
)
from fronttrack.tracking import Simulation
from references import (
    GAS_TWIN, LINEAR3, ProbeDomainError, reference_checked_jump,
    reference_fd_solve_riemann, reference_split_boundary_pair,
    reference_split_boundary_pair_reverse, split_recomposition_gap,
)

UL = np.array([1.0, 0.0])


def test_zero_jump_gives_zero_strengths(gas):
    sol = solve_riemann(gas, UL, UL)
    assert np.allclose(sol.sigmas, 0.0, atol=1e-14)
    assert sol.waves == ()


def test_recovers_forward_composition(gas):
    ur = compose_waves(gas, UL, [-0.2, 0.1])
    sol = solve_riemann(gas, UL, ur)
    assert np.max(np.abs(sol.sigmas - [-0.2, 0.1])) < 1e-8
    kinds = [w.kind for w in sol.waves]
    assert kinds == ["shock", "rarefaction"]


def test_linear_solution_is_left_basis_projection(diag_linear):
    rng = np.random.default_rng(2)
    for _ in range(10):
        ul = rng.uniform(-1, 1, 2)
        ur = rng.uniform(-1, 1, 2)
        sol = solve_riemann(diag_linear, ul, ur)
        eig = diag_linear.eigen(ul)
        assert np.array_equal(sol.sigmas, eig.left @ (ur - ul))
        assert all(w.kind == "contact" for w in sol.waves)


def test_round_trip_property(gas):
    rng = np.random.default_rng(17)
    for _ in range(150):
        sig = rng.uniform(-0.2, 0.2, 2)
        ur = compose_waves(gas, UL, sig)
        sol = solve_riemann(gas, UL, ur)
        assert np.max(np.abs(sol.sigmas - sig)) < 1e-8


def test_intermediate_states_chain_consistently(gas):
    ur = compose_waves(gas, UL, [-0.15, -0.08])
    sol = solve_riemann(gas, UL, ur)
    for i in (1, 2):
        step = lax_curve(gas, sol.states[i - 1], i, sol.sigmas[i - 1]).state
        assert np.max(np.abs(step - sol.states[i])) < 1e-10
    speeds = [s for w in sol.waves for s in (w.speed_lo, w.speed_hi)]
    assert np.all(np.diff(speeds) >= -1e-12)


def test_radius_guard(gas):
    big = compose_waves(gas, UL, [0.35, -0.35])
    with pytest.raises(RadiusError):
        solve_riemann(gas, UL, big)


def test_split_fixed_point(gas):
    split = split_boundary_pair(gas, UL, UL)
    assert np.max(np.abs(split.state - UL)) < 1e-12
    assert np.max(np.abs(split.sigmas)) < 1e-12


def test_split_recomposes_from_both_sides(gas):
    v, vp = UL, np.array([1.02, 0.01])
    split = split_boundary_pair(gas, v, vp)
    assert split.residual < 1e-10
    p = gas.p
    down = v.copy()
    for i in range(1, p + 1):
        down = lax_curve(gas, down, i, float(split.sigmas[i - 1])).state
    up = vp.copy()
    for i in range(p + 1, gas.n + 1):
        up = lax_curve(gas, up, i, float(split.sigmas[i - 1])).state
    assert np.max(np.abs(down - split.state)) < 1e-10
    assert np.max(np.abs(up - split.state)) < 1e-10


def test_split_side_structure_matches_family_partition(gas):
    # from v, only families <= p connect to the middle state
    v, vp = UL, np.array([1.03, -0.02])
    split = split_boundary_pair(gas, v, vp)
    sol = solve_riemann(gas, v, split.state)
    assert all(w.family <= gas.p for w in sol.waves)
    sol_up = solve_riemann(gas, vp, split.state)
    assert all(w.family > gas.p for w in sol_up.waves)


def test_split_radius_error_leaves_no_partial_result(gas):
    with pytest.raises(RadiusError):
        split_boundary_pair(gas, UL, np.array([1.45, 0.3]))


def test_reverse_split_fixed_point(gas):
    split = split_boundary_pair_reverse(gas, UL, UL)
    assert np.max(np.abs(split.state - UL)) < 1e-12
    assert np.max(np.abs(split.sigmas)) < 1e-12


def test_reverse_split_solves_both_equations(gas):
    w, u_star = np.array([1.01, -0.02]), UL
    split = split_boundary_pair_reverse(gas, w, u_star)
    assert split.residual < 1e-10
    up = split.state.copy()
    for i in range(gas.p + 1, gas.n + 1):
        up = lax_curve(gas, up, i, float(split.sigmas[i - 1])).state
    down = split.state.copy()
    for i in range(1, gas.p + 1):
        down = lax_curve(gas, down, i, float(split.sigmas[i - 1])).state
    assert np.max(np.abs(up - w)) < 1e-10
    assert np.max(np.abs(down - u_star)) < 1e-10


def test_reverse_split_radius_error(gas):
    with pytest.raises(RadiusError):
        split_boundary_pair_reverse(gas, np.array([1.4, 0.3]), UL)


def test_gas_reverse_split_inside_the_box_past_newtons_seed(gas):
    # Newton's start composed a curve point at [1.657, -0.125], outside the
    # box, and raised DomainError; the crossing never leaves the two curves
    data = [np.array([1.5, 0.0]), np.array([1.5, -0.25])]
    split = split_boundary_pair_reverse(gas, *data)
    assert np.max(np.abs(split.state - [1.35078824, -0.12502142])) <= 1e-8
    assert split.residual <= RESIDUAL_TOL
    assert split_recomposition_gap(gas, data, split, reverse=True) <= RESIDUAL_TOL


@st.composite
def models_and_targets(draw):
    """A gas with drawn K and gamma and a subsonic u*, or the three-family
    linear model (p = 2) and a u* in the unit cube."""
    if draw(st.booleans()):
        return LINEAR3, np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                               min_size=3, max_size=3)))
    gas = GasModel(K=draw(st.floats(0.5, 2.0)),
                   gamma=draw(st.floats(1.05, 2.95)),
                   box=Box([1e-3, -50.0], [50.0, 50.0]))
    rho = draw(st.floats(0.5, 1.5))
    return gas, np.array([rho, draw(st.floats(-0.8, 0.8))
                          * gas.sound_speed(rho)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reverse_split_from_upper_curve_returns_u_star_bitwise(data):
    model, u_star = data.draw(models_and_targets())
    sigmas = [data.draw(st.builds(lambda e, s: s * 10.0 ** e,
                                  st.floats(-12.0, math.log10(0.25)),
                                  st.sampled_from([-1.0, 1.0])))
              for _ in range(model.p + 1, model.n + 1)]
    try:
        w = u_star
        for family, sigma in zip(range(model.p + 1, model.n + 1), sigmas):
            w = lax_curve(model, w, family, sigma).state
        model.check_domain(w)
    except DomainError:
        assume(False)
    split = split_boundary_pair_reverse(model, w, u_star)
    assert np.array_equal(split.state, u_star)
    assert split.residual < 1e-12


# -- one Lax curve point per solve ---------------------------------------------


def counted_lax_curve(monkeypatch):
    calls = []

    def counted(model, u0, family, sigma):
        calls.append((np.asarray(u0, dtype=float).tobytes(), family,
                      np.float64(sigma).tobytes()))
        return lax_curve(model, u0, family, sigma)

    monkeypatch.setattr(riemann, "lax_curve", counted)
    return calls


TABLE_SIGMAS = [(0.08, 0.05), (-0.07, 0.03), (0.04, -0.09), (-0.1, -0.06),
                (0.0, -0.05)]


@pytest.mark.parametrize("sigmas", TABLE_SIGMAS)
def test_table_solve_computes_each_curve_point_once(sigmas, monkeypatch):
    ur = compose_waves(GAS_TWIN, UL, sigmas)
    calls = counted_lax_curve(monkeypatch)
    sol = solve_riemann(GAS_TWIN, UL, ur)
    assert len(calls) == len(set(calls)) > 2 * GAS_TWIN.n
    # the recomposition reuses Newton's last points: the same solution as
    # composing the strengths afresh
    fresh = _solution_from_sigmas(GAS_TWIN, UL, sol.sigmas, ur=ur)
    assert sol.sigmas.tobytes() == fresh.sigmas.tobytes()
    assert [s.tobytes() for s in sol.states] == [s.tobytes() for s in fresh.states]
    assert sol.residual == fresh.residual <= 1e-10
    assert len(sol.waves) == len(fresh.waves)
    for wave, ref in zip(sol.waves, fresh.waves):
        for name in ("family", "sigma", "kind", "speed_lo", "speed_hi",
                     "rh_residual"):
            assert getattr(wave, name) == getattr(ref, name)
        assert wave.left.tobytes() == ref.left.tobytes()
        assert wave.right.tobytes() == ref.right.tobytes()


@pytest.mark.parametrize("sigmas", TABLE_SIGMAS)
def test_table_solve_computes_fewer_curve_points_than_fd_newton(sigmas,
                                                               monkeypatch):
    # the eigenbasis seed and Broyden's update replace the n extra curve
    # compositions of every forward-difference Jacobian
    ur = compose_waves(GAS_TWIN, UL, sigmas)
    calls = counted_lax_curve(monkeypatch)
    solve_riemann(GAS_TWIN, UL, ur)
    broyden = len(calls)
    calls.clear()
    reference_fd_solve_riemann(GAS_TWIN, UL, ur)
    assert broyden < len(calls)


@pytest.mark.parametrize("model_name", ["gas", "gas_table"])
@pytest.mark.parametrize("split, reference, data", [
    (split_boundary_pair, reference_split_boundary_pair, (UL, [1.05, 0.03])),
    (split_boundary_pair_reverse, reference_split_boundary_pair_reverse,
     ([1.05, 0.03], UL)),
], ids=["forward", "reverse"])
def test_split_computes_each_curve_point_once(model_name, split, reference,
                                              data, gas, monkeypatch):
    data = [np.array(u, dtype=float) for u in data]
    calls = counted_lax_curve(monkeypatch)
    if model_name == "gas_table":
        # a split needs the Riemann chart that the custom table lacks: it
        # raises before it computes any curve point
        with pytest.raises(NotImplementedError,
                           match="^custom-table model has no Riemann chart$"):
            split(GAS_TWIN, *data)
        assert calls == []
        return
    # the gas crosses its two curves in closed form, up to one scalar root,
    # and evaluates no Lax curve
    result = split(gas, *data)
    state, sigmas, residual = reference(gas, *data)
    assert calls == []
    assert np.max(np.abs(result.state - state)) <= 1e-11
    assert np.max(np.abs(result.sigmas - sigmas)) <= 1e-11
    assert result.residual <= 1e-10


def test_chart_solves_compute_one_curve_point_per_family(gas, diag_linear,
                                                         monkeypatch):
    # the gas builds its waves from the middle state of its root and
    # evaluates no Lax curve; the linear projection composes one point per
    # family
    calls = counted_lax_curve(monkeypatch)
    for model, ur, points in ((gas, UL, 0), (gas, [1.1, 0.05], 0),
                              (gas, [0.9, 0.1], 0),
                              (diag_linear, [0.3, -0.2], diag_linear.n)):
        calls.clear()
        solve_riemann(model, UL, np.array(ur))
        assert len(calls) == points


# -- the Riemann solves' own checks ---------------------------------------

def perturb_gas_middle(monkeypatch, residual=0.0, speed=0.0):
    """Make the gas root report a larger residual, or shock speeds moved by
    ``speed``, on every solve."""
    middle = GasModel.riemann_middle

    def perturbed(self, ul, ur):
        um, sigmas, speeds, res = middle(self, ul, ur)
        return um, sigmas, tuple(s + speed for s in speeds), res + residual

    monkeypatch.setattr(GasModel, "riemann_middle", perturbed)


PERTURBATIONS = pytest.mark.parametrize("perturbation, message", [
    ({"residual": 10 * RESIDUAL_TOL}, "gas riemann residual"),
    ({"speed": 1e-6}, "RH residual"),
], ids=["root residual", "RH residual"])


@PERTURBATIONS
def test_gas_solve_raises_beyond_its_checks(gas, perturbation, message,
                                            monkeypatch):
    ur = compose_waves(gas, UL, [-0.1, -0.05])
    assert [w.kind for w in solve_riemann(gas, UL, ur).waves] == ["shock"] * 2
    perturb_gas_middle(monkeypatch, **perturbation)
    with pytest.raises(ConvergenceError, match=message):
        solve_riemann(gas, UL, ur)


def test_gas_solve_raises_on_a_shock_beyond_its_lax_margin(gas, monkeypatch):
    # the expansive branch of the family-1 Hugoniot locus through UL meets
    # Rankine-Hugoniot at its speed, but not the Lax condition
    um, speed = gas.hugoniot_point(UL, 1, 0.1)
    monkeypatch.setattr(GasModel, "riemann_middle", lambda self, ul, ur: (
        um, np.array([-0.1, 0.0]), (speed, 0.0), 0.0))
    with pytest.raises(ConvergenceError, match="violates the Lax condition"):
        solve_riemann(gas, UL, um)


def test_table_solve_raises_on_a_shock_off_its_speed(monkeypatch):
    # the chartless shock solve hands on a speed 1e-6 off: its states, and
    # so Newton's root, are those of a good solve, but the shock's RH
    # residual from the flux is not
    newton_shock = curves._newton_shock

    def off_speed(*args):
        state, speed = newton_shock(*args)
        return state, speed + 1e-6

    ur = compose_waves(GAS_TWIN, UL, [-0.07, 0.03])
    assert [w.kind for w in solve_riemann(GAS_TWIN, UL, ur).waves] == [
        "shock", "rarefaction"]
    monkeypatch.setattr(curves, "_newton_shock", off_speed)
    with pytest.raises(ConvergenceError, match="shock family 1: RH residual"):
        solve_riemann(GAS_TWIN, UL, ur)


@pytest.mark.parametrize("scale", [1e6, 1e7])
def test_large_linear_jump_is_solved_with_unchecked_contacts(scale):
    # a linear model solves jumps of any size; a contact's RH residual is
    # roundoff of |u|, above RESIDUAL_TOL here, so it is carried, not checked
    model = LinearModel([[-1.0, 0.3], [0.2, 1.0]], box=Box([-1e8] * 2, [1e8] * 2))
    ul, ur = scale * np.array([0.1, -0.3]), scale * np.array([-0.2, 0.5])
    sol = solve_riemann(model, ul, ur)
    assert [w.kind for w in sol.waves] == ["contact", "contact"]
    assert sol.residual <= 1e-15 * scale
    assert max(w.rh_residual for w in sol.waves) <= 1e-15 * scale


@PERTURBATIONS
def test_failed_collision_solve_is_recorded_before_it_raises(
        gas, perturbation, message, monkeypatch):
    u1 = lax_curve(gas, UL, 1, -0.06).state
    u2 = lax_curve(gas, u1, 1, -0.05).state
    sim = Simulation(gas, profile_from_jumps(0.0, 1.0, UL, [(0.9, u1), (0.91, u2)]),
                     0.05)
    event = sim.next_event()
    assert event.kind == "collision"
    perturb_gas_middle(monkeypatch, **perturbation)
    with pytest.raises(ConvergenceError, match=message):
        sim.advance_to(event.time)
    record = sim.records[-1]
    assert (record.kind, record.time, sim.fronts["families"][record.in_ids].tolist()
            ) == ("error", event.time, [1, 1])


# -- the jump check against its array form ---------------------------------------

RADIUS_STEPS = [DELTA_RIEMANN, np.nextafter(DELTA_RIEMANN, 0.0),
                np.nextafter(DELTA_RIEMANN, 1.0), DELTA_RIEMANN - 4e-16,
                DELTA_RIEMANN + 4e-16, 0.1, 0.5]


def _jump_outcome(check, *args):
    """The bytes of a jump check's dw, or its error class and message."""
    try:
        return check(*args).tobytes()
    except (RadiusError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_jump_check_matches_its_array_form_at_the_radius(data, gas):
    model = data.draw(st.sampled_from([gas, GAS_TWIN]))
    ul = np.array([data.draw(st.floats(0.6, 1.4)), data.draw(st.floats(-0.4, 0.4))])
    if model is gas:
        # a chart jump of the drawn size in one coordinate, which the chart
        # reproduces to within roundoff: the check meets both sides of the
        # radius and the radius itself
        w = gas.to_riemann(ul)
        w[data.draw(st.sampled_from([0, 1]))] += (
            data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
                st.sampled_from(RADIUS_STEPS)))
        ur = gas.from_riemann(w)
    else:
        ur = ul + np.array([data.draw(st.floats(-0.4, 0.4)) for _ in range(2)])
    got = _jump_outcome(riemann._checked_jump, model, ul, ur, "data jump", "solvable")
    want = _jump_outcome(reference_checked_jump, model, ul, ur, "data jump",
                         "solvable")
    assert got == want
    if not (isinstance(want, tuple) and want[0] is DomainError):
        jump = float(np.max(np.abs(_coords(model, ur) - _coords(model, ul))))
        assert isinstance(got, tuple) == (jump > DELTA_RIEMANN)


def test_jump_check_admits_the_radius_and_refuses_the_next_float(diag_linear):
    # the identity chart of diag(-1, 1) gives the jump exactly
    ul = np.zeros(2)
    for check in (riemann._checked_jump, reference_checked_jump):
        ur = np.array([0.0, -DELTA_RIEMANN])
        assert check(diag_linear, ul, ur, "|v - v'| =", "split").tolist() == [
            0.0, -DELTA_RIEMANN]
        ur = np.array([0.0, -np.nextafter(DELTA_RIEMANN, 1.0)])
        with pytest.raises(RadiusError, match="exceeds split radius"):
            check(diag_linear, ul, ur, "|v - v'| =", "split")


# -- the Broyden Newton against Newton on a forward-difference Jacobian ---------


def _outcome(solve, *args, **kwargs):
    """(states, sigmas, residual) of a solve, or the class of its error."""
    try:
        res = solve(*args, **kwargs)
    except SOLVER_ERRORS as exc:
        return type(exc)
    if isinstance(res, tuple):
        return [res[0]], res[1], res[2]
    states = res.states if hasattr(res, "states") else [res.state]
    return list(states), res.sigmas, res.residual


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solves_agree_with_fd_newton_within_the_solvable_radius(data, gas):
    model = data.draw(st.sampled_from([gas, GAS_TWIN]))
    ul = np.array([data.draw(st.floats(0.5, 1.5)), data.draw(st.floats(-0.6, 0.6))])
    ur = ul + np.array([data.draw(st.floats(-0.25, 0.25)) for _ in range(2)])
    assume(model.in_domain(ur))
    assume(np.max(np.abs(_coords(model, ur) - _coords(model, ul))) <= DELTA_RIEMANN)
    if model is GAS_TWIN:
        # the gas solves its Riemann problem in closed form; a split needs
        # the chart that the table lacks
        pairs = [(solve_riemann, _outcome(solve_riemann, model, ul, ur),
                  _outcome(reference_fd_solve_riemann, model, ul, ur))]
    else:
        pairs = [(split, _outcome(split, model, ul, ur),
                  _outcome(reference, model, ul, ur, fd=True))
                 for split, reference in (
                     (split_boundary_pair, reference_split_boundary_pair),
                     (split_boundary_pair_reverse,
                      reference_split_boundary_pair_reverse))]
    for solve, got, want in pairs:
        if want is ProbeDomainError:
            # only the reference's own probe failed: either outcome is allowed,
            # and a solution must meet its bound
            assert isinstance(got, type) or got[2] <= RESIDUAL_TOL
            continue
        if want is DomainError and model is gas and not isinstance(got, type):
            # the reference's Newton left the box at one of its own iterates;
            # the gas split, a crossing of its two curves, must recompose
            split = riemann.BoundarySplit(got[0][0], got[1], (), got[2])
            assert split_recomposition_gap(
                model, (ul, ur), split,
                reverse=solve is split_boundary_pair_reverse) <= RESIDUAL_TOL
            continue
        if model is gas and got is DomainError and want is ConvergenceError:
            # the split lies outside the box: the gas crossing says so, where
            # the reference's line search stalls at the box edge
            ends = ((ul, ur, 1, 1) if solve is split_boundary_pair
                    else (ur, ul, -1, -1))
            assert not model.in_domain(model.riemann_middle(*ends)[0])
            continue
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            continue
        for state, ref in zip(got[0], want[0], strict=True):
            assert np.max(np.abs(state - ref)) <= 1e-10
        assert np.max(np.abs(got[1] - want[1])) <= 1e-10
        assert got[2] <= RESIDUAL_TOL
