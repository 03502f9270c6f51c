"""Property tests for the closed-form gas waves: GasModel.hugoniot_point and
GasModel.riemann_middle on random gases, against the jump conditions, the
Riemann chart, the Newton solves they replace (the 3x3 shock solve and both
boundary splits), the recomposition along the Lax curves, and the generic
Riemann solver on the custom-table twin of the gamma = 2 gas.  The
recomposition test also runs the twin and a three-family linear model, and
checks the waves of every model; the split test also runs the linear model,
whose splits are projections."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fronttrack import models
from fronttrack.curves import lax_curve, rarefaction_curve, shock_curve
from fronttrack.errors import SOLVER_ERRORS, DomainError
from fronttrack.models import Box, GasModel
from fronttrack.newton import RES_TOL, newton_solve, scalar_root
from fronttrack.riemann import (
    DELTA_RIEMANN, RESIDUAL_TOL, _solution_from_sigmas, compose_waves,
    solve_riemann, split_boundary_pair, split_boundary_pair_reverse,
)

from references import (
    GAS_TWIN, LINEAR3, chart_gradient, reference_split_boundary_pair,
    reference_split_boundary_pair_reverse, split_recomposition_gap,
)

# wide enough that only the subsonic predicate limits the domain
WIDE = Box([1e-3, -50.0], [50.0, 50.0])

GAS2 = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))


@st.composite
def gases(draw):
    return GasModel(K=draw(st.floats(0.5, 2.0)),
                    gamma=draw(st.floats(1.05, 2.95, exclude_min=True,
                                         exclude_max=True)),
                    box=WIDE)


@st.composite
def subsonic_states(draw, gas, mach=0.8):
    rho = draw(st.floats(0.5, 1.5))
    return np.array([rho, draw(st.floats(-mach, mach)) * gas.sound_speed(rho)])


def strengths(radius):
    """Signed strengths with magnitudes log-uniform from 1e-16 to radius."""
    return st.builds(lambda e, s: s * 10.0 ** e,
                     st.floats(-16.0, math.log10(radius)),
                     st.sampled_from([-1.0, 1.0]))


def newton_shock(gas, u0, family, sigma):
    """The 3x3 Newton solve of Rankine-Hugoniot plus the strength equation
    that shock_curve ran for the gas before the closed form, seeded at the
    chart rarefaction point; the reference for hugoniot_point."""
    f0 = gas.flux(u0)
    eig0 = gas.eigen(u0)
    w = gas.to_riemann(u0)
    w[family - 1] += sigma
    seed = gas.from_riemann(w)
    x0 = np.concatenate([seed, [0.5 * (eig0.lam(family)
                                       + gas.eigen(seed).lam(family))]])

    def fn(x):
        u, s = x[:2], x[2]
        return np.concatenate([gas.flux(u) - f0 - s * (u - u0),
                               [gas.to_riemann(u)[family - 1]
                                - gas.to_riemann(u0)[family - 1] - sigma]])

    def jac(x):
        u, s = x[:2], x[2]
        J = np.zeros((3, 3))
        J[:2, :2] = gas.jacobian(u) - s * np.eye(2)
        J[:2, 2] = -(u - u0)
        J[2, :2] = chart_gradient(gas, u, family)
        return J

    x = newton_solve(fn, x0, jac(x0))
    return x[:2], float(x[2])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_hugoniot_point_jump_conditions_strength_and_lax(data):
    gas = data.draw(gases())
    u0 = data.draw(subsonic_states(gas))
    family = data.draw(st.sampled_from([1, 2]))
    sigma = data.draw(strengths(gas.curve_radius))
    state, speed = gas.hugoniot_point(u0, family, sigma)
    assert state[0] > 0.0
    f = gas.flux(state)
    rh = f - gas.flux(u0) - speed * (state - u0)
    assert np.max(np.abs(rh)) <= 1e-12 * max(1.0, float(np.max(np.abs(f))))
    dw = gas.to_riemann(state) - gas.to_riemann(u0)
    assert abs(dw[family - 1] - sigma) <= 1e-13
    if sigma < 0.0:
        # the margins are about (gamma + 1) |sigma| / 8; below |sigma| ~ 1e-14
        # they are smaller than the roundoff of the speeds themselves
        lam0 = gas.lambdas(u0)[family - 1]
        lam1 = gas.lambdas(state)[family - 1]
        floor = 0.05 * abs(sigma) - 1e-15
        assert lam0 - speed > floor
        assert speed - lam1 > floor


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hugoniot_point_matches_newton_reference(data):
    gas = data.draw(gases())
    u0 = data.draw(subsonic_states(gas))
    family = data.draw(st.sampled_from([1, 2]))
    sigma = data.draw(strengths(0.3))
    state, speed = gas.hugoniot_point(u0, family, sigma)
    ref_state, ref_speed = newton_shock(gas, u0, family, sigma)
    assert np.max(np.abs(state - ref_state)) <= 1e-10
    # Newton stops on the flux residual, which pins its speed only to
    # residual / |u - u0|
    dist = float(np.max(np.abs(state - u0)))
    assert abs(speed - ref_speed) * dist <= 1e-10 * dist + 1e-11


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lax_curve_is_c1_across_zero(data):
    gas = data.draw(gases())
    u0 = data.draw(subsonic_states(gas))
    family = data.draw(st.sampled_from([1, 2]))
    eig = gas.eigen(u0)
    r = eig.r(family)
    tangent = r / float(chart_gradient(gas, u0, family) @ r)
    # branch values meet at zero and the one-sided second-order difference
    # quotients of both branches reproduce the chart tangent
    h = 1e-4
    assert np.array_equal(lax_curve(gas, u0, family, 0.0).state, u0)

    def point(s):
        return lax_curve(gas, u0, family, s).state
    d_plus = (4 * point(h) - 3 * u0 - point(2 * h)) / (2 * h)
    d_minus = (3 * u0 - 4 * point(-h) + point(-2 * h)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(tangent))))
    assert np.max(np.abs(d_plus - tangent)) <= 1e-6 * scale
    assert np.max(np.abs(d_minus - tangent)) <= 1e-6 * scale
    # third-order contact: the shock branch leaves the rarefaction branch
    # as |sigma|^3
    gap = np.max(np.abs(shock_curve(gas, u0, family, -h).state
                        - rarefaction_curve(gas, u0, family, -h).state))
    assert gap <= 1e-9 * scale


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gas_riemann_round_trip(data):
    gas = data.draw(gases())
    ul = data.draw(subsonic_states(gas, mach=0.5))
    sig = np.array([data.draw(strengths(0.12)), data.draw(strengths(0.12))])
    try:
        ur = compose_waves(gas, ul, sig)
    except DomainError:
        assume(False)
    sol = solve_riemann(gas, ul, ur)
    assert np.max(np.abs(sol.sigmas - sig)) <= 1e-10
    assert sol.residual <= 1e-10


@st.composite
def riemann_data(draw):
    """A drawn gas and a subsonic state, or the table twin of GAS2 or the
    three-family linear model and a state inside its box; and strengths to
    compose from the state."""
    model = draw(st.one_of(gases(), st.sampled_from([GAS_TWIN, LINEAR3])))
    if model is LINEAR3:
        ul = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
        return model, ul, [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
    if model is GAS_TWIN:
        ul = np.array([draw(st.floats(0.8, 1.2)), draw(st.floats(-0.2, 0.2))])
    else:
        ul = draw(subsonic_states(model))
    return model, ul, [draw(st.floats(-0.08, 0.08)) for _ in range(2)]


def assert_wave_invariants(model, sol):
    """A linear model's waves are contacts at lambda_i; otherwise a
    rarefaction moves at lambda_i of its ends, bitwise, and a shock meets
    Rankine-Hugoniot and the Lax condition to within RESIDUAL_TOL."""
    for w in sol.waves:
        lam_left = model.lambdas(w.left)[w.family - 1]
        lam_right = model.lambdas(w.right)[w.family - 1]
        if model.kind == "linear":
            assert w.kind == "contact"
            assert w.speed_lo == w.speed_hi == lam_left
        elif w.sigma >= 0.0:
            assert w.kind == "rarefaction"
            assert (w.speed_lo, w.speed_hi) == (lam_left, lam_right)
        else:
            s = w.speed_lo
            assert w.kind == "shock" and w.speed_hi == s
            rh = np.max(np.abs(model.flux(w.right) - model.flux(w.left)
                               - s * (w.right - w.left)))
            assert rh <= RESIDUAL_TOL
            assert max(lam_right - s, s - lam_left) <= RESIDUAL_TOL


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_solve_matches_its_recomposition_along_the_lax_curves(data):
    model, ul, sig = data.draw(riemann_data())
    try:
        ur = compose_waves(model, ul, sig)
    except DomainError:
        assume(False)
    sol = solve_riemann(model, ul, ur)
    old = _solution_from_sigmas(model, ul, sol.sigmas, ur)
    assert ([(w.family, w.kind) for w in sol.waves]
            == [(w.family, w.kind) for w in old.waves])
    for state, ref in zip(sol.states, old.states, strict=True):
        assert np.max(np.abs(state - ref)) <= 1e-12
    # relative to the speed scale at ul: the recomposition inverts the chart
    # with the power 1 / theta, which amplifies its roundoff as gamma -> 1
    scale = float(np.max(np.abs(model.lambdas(ul))))
    for wave, ref in zip(sol.waves, old.waves):
        assert abs(wave.speed_lo - ref.speed_lo) <= 1e-14 * scale
        assert abs(wave.speed_hi - ref.speed_hi) <= 1e-14 * scale
    assert_wave_invariants(model, sol)
    assert_wave_invariants(model, old)
    assert sol.residual <= RESIDUAL_TOL
    assert old.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("gamma", [1.05, 1.2, 1.4])
@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310, -1e-310])
def test_wave_terms_take_their_limit_at_a_tiny_offset(gamma, x):
    # expm1 underflows below the normal range, where (P(rho) - P(rho0)) / x
    # has no digits left and once made q = 0
    for rho0 in (0.7, 1.0, 1.5):
        terms = GasModel(K=0.5, gamma=gamma)._wave_terms(rho0, x)
        assert all(map(math.isfinite, terms))
        assert terms[2] > 0.0


def test_gas_riemann_seed_is_the_two_rarefaction_state(gas, monkeypatch):
    # on two-rarefaction data the chart branches of both curves are the
    # solution, so the seed is the root up to roundoff
    gaps = []

    def recorded(fn, x, lo, hi, context=""):
        gaps.append(fn(x)[0])
        return scalar_root(fn, x, lo, hi, context)

    monkeypatch.setattr(models, "scalar_root", recorded)
    for sigmas in ([0.1, 0.1], [0.02, 0.15], [0.2, 0.01]):
        ul = np.array([1.0, 0.0])
        gaps.clear()
        gas.riemann_middle(ul, compose_waves(gas, ul, sigmas))
        assert len(gaps) == 1 and abs(gaps[0]) < RES_TOL


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chart_splits_match_the_newton_reference(data):
    # the gas crosses its two curves and the three-family linear model
    # projects on its left eigenbasis, both against the references' Newton,
    # which stops at a residual below RES_TOL = 1e-12: a strength near 1e-12
    # is null to it, and the projection zeroes those below SIGMA_NULL
    model = data.draw(st.one_of(gases(), st.just(LINEAR3)))
    if model is LINEAR3:
        u1 = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    else:
        u1 = data.draw(subsonic_states(model, mach=0.5))
    # inside the radius by more than the roundoff of the chart round trip
    radius = 0.99 * DELTA_RIEMANN
    dw = [data.draw(st.floats(-radius, radius)) for _ in range(model.n)]
    try:
        u2 = model.from_riemann(model.to_riemann(u1) + dw)
        model.check_domain(u2)
    except DomainError:
        assume(False)
    for split, reference, ends, reverse in (
            (split_boundary_pair, reference_split_boundary_pair, (u1, u2), False),
            (split_boundary_pair_reverse, reference_split_boundary_pair_reverse,
             (u2, u1), True)):
        try:
            state, sigmas, _ = reference(model, *ends)
        except SOLVER_ERRORS:
            continue
        got = split(model, *ends)
        assert np.max(np.abs(got.state - state)) <= 1e-11
        assert np.max(np.abs(got.sigmas - sigmas)) <= 1e-11
        assert got.residual <= RESIDUAL_TOL
        assert split_recomposition_gap(model, ends, got, reverse) <= RESIDUAL_TOL




@settings(max_examples=15, deadline=None)
@given(rho=st.floats(0.8, 1.2), v=st.floats(-0.2, 0.2),
       s1=st.floats(-0.1, 0.1), s2=st.floats(-0.1, 0.1))
def test_gas_riemann_matches_generic_solver_on_table_twin(rho, v, s1, s2):
    ul = np.array([rho, v])
    ur = compose_waves(GAS2, ul, [s1, s2])
    gas = solve_riemann(GAS2, ul, ur)
    table = solve_riemann(GAS_TWIN, ul, ur)
    assert np.max(np.abs(gas.states[1] - table.states[1])) <= 1e-9
    # the table's Newton shock solve pins a speed only to its flux residual
    # over the jump, so compare shocks that are not tiny
    table_waves = {w.family: w for w in table.waves}
    for w in gas.waves:
        if w.kind == "shock" and abs(w.sigma) >= 1e-2:
            assert table_waves[w.family].kind == "shock"
            assert abs(w.speed_lo - table_waves[w.family].speed_lo) <= 1e-9
