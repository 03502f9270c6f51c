import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack import curves
from fronttrack.curves import (
    hugoniot_offset, lax_curve, rarefaction_at_speed_offset, rarefaction_curve,
    shock_curve, shock_deviation_coefficient,
)
from fronttrack.errors import (
    SOLVER_ERRORS, ConvergenceError, DomainError, HyperbolicityError,
    RadiusError,
)
from fronttrack.models import Box, GasModel, TableModel

from references import GAS_TWIN, chart_gradient, reference_newton_shock
from test_models import TABLE3

U0 = np.array([1.0, 0.0])


def _rh_residual(model, u0, point):
    """max |f(u) - f(u0) - s (u - u0)| of the curve point (u, s) from u0."""
    return float(np.max(np.abs(model.flux(point.state) - model.flux(u0)
                               - point.speed * (point.state - u0))))


def test_rarefaction_at_zero_is_identity(gas):
    cp = rarefaction_curve(gas, U0, 1, 0.0)
    assert np.array_equal(cp.state, U0)
    assert cp.speed == pytest.approx(-1.0)


def test_linear_rarefaction_is_affine(diag_linear):
    u0 = np.array([0.3, -0.2])
    cp = rarefaction_curve(diag_linear, u0, 2, 0.17)
    assert np.allclose(cp.state, u0 + 0.17 * np.array([0.0, 1.0]), atol=1e-15)


def _rk4(gas, u0, family, sigma, steps):
    """Fixed-step integrator for the sigma-normalized eigenvector field."""
    def field(u):
        eig = gas.eigen(u)
        r = eig.r(family)
        return r / (chart_gradient(gas, u, family) @ r)

    h = sigma / steps
    u = np.asarray(u0, dtype=float)
    for _ in range(steps):
        k1 = field(u)
        k2 = field(u + 0.5 * h * k1)
        k3 = field(u + 0.5 * h * k2)
        k4 = field(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_gas_rarefaction_against_step_halving_integrator(gas):
    cp = rarefaction_curve(gas, U0, 2, 0.1)
    assert cp.speed > gas.lambdas(U0)[1]
    coarse = _rk4(gas, U0, 2, 0.1, 64)
    fine = _rk4(gas, U0, 2, 0.1, 128)
    assert np.max(np.abs(coarse - fine)) < 1e-8
    assert np.max(np.abs(cp.state - fine)) < 1e-8


def test_rarefaction_speed_increases_with_sigma(gas):
    speeds = [rarefaction_curve(gas, U0, 1, s).speed
              for s in np.linspace(-0.2, 0.2, 9)]
    assert np.all(np.diff(speeds) > 0)


def test_shock_at_zero_is_identity(gas):
    cp = shock_curve(gas, U0, 1, 0.0)
    assert np.array_equal(cp.state, U0)
    assert cp.speed == pytest.approx(-1.0)


def test_shock_satisfies_jump_conditions_and_admissibility(gas):
    cp = shock_curve(gas, U0, 1, -0.2)
    jump = gas.flux(cp.state) - gas.flux(U0) - cp.speed * (cp.state - U0)
    assert np.max(np.abs(jump)) < 1e-10
    assert gas.lambdas(U0)[0] > cp.speed > gas.lambdas(cp.state)[0]


def test_shock_curve_radius_guard(gas):
    with pytest.raises(RadiusError):
        shock_curve(gas, U0, 1, -0.9)


def test_random_shocks_keep_tight_residual_and_lax_margin(gas):
    rng = np.random.default_rng(23)
    for _ in range(40):
        u0 = rng.uniform([0.7, -0.2], [1.3, 0.2])
        family = int(rng.integers(1, 3))
        sigma = -rng.uniform(0.01, 0.25)
        cp = shock_curve(gas, u0, family, sigma)
        assert _rh_residual(gas, u0, cp) < 1e-10
        margin_l = gas.lambdas(u0)[family - 1] - cp.speed
        margin_r = cp.speed - gas.lambdas(cp.state)[family - 1]
        assert margin_l > 0.05 * abs(sigma)
        assert margin_r > 0.05 * abs(sigma)


def test_shock_rarefaction_tangency_is_cubic(gas):
    sigmas = np.array([0.05, 0.1, 0.2])
    gaps = []
    for s in sigmas:
        gap = max(
            np.max(np.abs(shock_curve(gas, U0, 1, s).state
                          - rarefaction_curve(gas, U0, 1, s).state)),
            np.max(np.abs(shock_curve(gas, U0, 1, -s).state
                          - rarefaction_curve(gas, U0, 1, -s).state)))
        gaps.append(gap)
    slope = np.polyfit(np.log(sigmas), np.log(gaps), 1)[0]
    assert slope >= 2.7


def test_lax_curve_branches_bitwise(gas):
    plus = lax_curve(gas, U0, 2, 0.15)
    assert np.array_equal(plus.state, rarefaction_curve(gas, U0, 2, 0.15).state)
    minus = lax_curve(gas, U0, 2, -0.15)
    assert np.array_equal(minus.state, shock_curve(gas, U0, 2, -0.15).state)


def test_lax_curve_c1_across_zero(gas):
    # one-sided second-order difference quotients of the composite curve
    h = 1e-3
    for family in (1, 2):
        def point(s):
            return lax_curve(gas, U0, family, s).state
        d_plus = (4 * point(h) - 3 * point(0.0) - point(2 * h)) / (2 * h)
        d_minus = (3 * point(0.0) - 4 * point(-h) + point(-2 * h)) / (2 * h)
        assert np.max(np.abs(d_plus - d_minus)) < 1e-6


def test_deviation_coefficient_sign_and_value(gas):
    c1 = shock_deviation_coefficient(gas, U0, 1)
    c2 = shock_deviation_coefficient(gas, U0, 2)
    assert c1 < 0
    assert c2 < 0
    # closed form for this flux works out to -(1-th)/(4 K^2 (1+th)^2 rho^(2 th))
    # with th = (gamma-1)/2, i.e. -1/18 at (1, 0) for K=1, gamma=2
    assert c1 == pytest.approx(-1.0 / 18.0, abs=1e-6)
    assert c2 == pytest.approx(-1.0 / 18.0, abs=1e-6)


@pytest.mark.parametrize("K", [0.7, 1.0, 1.6])
@pytest.mark.parametrize("gamma", [1.2, 5.0 / 3.0, 2.0, 2.8])
def test_deviation_coefficient_is_the_gas_closed_form(K, gamma):
    # -(1 - th) / (4 K^2 (1 + th)^2 rho^(2 th)) with th = (gamma - 1)/2, in
    # units of the chart eigenvector r_other = du/dw_other
    gas = GasModel(K=K, gamma=gamma)
    th = gas.theta
    for u in gas.admitted_grid(3):
        closed = -(1 - th) / (4 * K * K * (1 + th) ** 2 * u[0] ** (2 * th))
        for family in (1, 2):
            assert (shock_deviation_coefficient(gas, u, family)
                    == pytest.approx(closed, rel=1e-13, abs=0))


def test_deviation_coefficient_matches_cubic_fit(gas):
    sig = np.array([-0.2, -0.15, -0.1, -0.05, -0.02])
    for family in (1, 2):
        offsets = np.array([hugoniot_offset(gas, U0, family, s) for s in sig])
        basis = np.vstack([sig ** 3 / 6.0, sig ** 4 / 6.0]).T
        coef, *_ = np.linalg.lstsq(basis, offsets, rcond=None)
        closed = shock_deviation_coefficient(gas, U0, family)
        assert abs(coef[0] - closed) <= 0.05 * abs(closed)


def test_deviation_coefficients_negative_across_box(gas):
    for rho in (0.8, 1.0, 1.2):
        for v in (-0.15, 0.0, 0.15):
            u = np.array([rho, v])
            assert shock_deviation_coefficient(gas, u, 1) < 0
            assert shock_deviation_coefficient(gas, u, 2) < 0


def test_linearly_degenerate_family_raises_domain_error(diag_linear):
    # grad(lambda) . r vanishes: no speed reparametrization, no
    # lambda-normalized field
    u0 = np.zeros(2)
    with pytest.raises(DomainError, match="family 1 is not genuinely nonlinear"):
        rarefaction_at_speed_offset(diag_linear, u0, 1, 0.01)
    with pytest.raises(DomainError, match="family 1 is not genuinely nonlinear"):
        shock_deviation_coefficient(diag_linear, u0, 1)
    with pytest.raises(DomainError, match="family 2 is not genuinely nonlinear"):
        hugoniot_offset(diag_linear, u0, 2, 0.01)


# -- the chartless shock seed against the rarefaction-seeded reference -------

# f = (u^2 / 2 + v, u + v^2 / 2): a symmetric Jacobian, speeds 2 apart or more
SYMMETRIC_TABLE = TableModel([[(0.5, (2, 0)), (1.0, (0, 1))],
                              [(1.0, (1, 0)), (0.5, (0, 2))]], 1,
                             Box([-0.5, -0.5], [0.5, 0.5]))


@pytest.mark.parametrize("model", [GAS_TWIN, SYMMETRIC_TABLE],
                         ids=["gas_twin", "symmetric"])
def test_eigenpair_seeded_shock_is_the_rarefaction_seeded_one(model, monkeypatch):
    # the same shock_curve outcome, a point or an error class, as with the
    # parent's seed: the rarefaction point and the mean of its end speeds
    rng = np.random.default_rng(5)
    lows, highs = model.box.lows, model.box.highs
    draws = [(u0, family, -model.curve_radius * (1.0 - rng.random()))
             for u0 in lows + (highs - lows) * rng.random((400, model.n))
             for family in (1, 2)]

    def outcomes():
        out = []
        for u0, family, sigma in draws:
            try:
                out.append(shock_curve(model, u0, family, sigma))
            except (DomainError, ConvergenceError, HyperbolicityError) as exc:
                out.append(type(exc))
        return out

    got = outcomes()
    monkeypatch.setattr(curves, "_newton_shock", reference_newton_shock)
    want = outcomes()
    points = 0
    for draw, point, ref in zip(draws, got, want):
        if isinstance(ref, type):
            assert point is ref, draw
            continue
        points += 1
        assert np.max(np.abs(point.state - ref.state)) <= 1e-9, draw
        assert abs(point.speed - ref.speed) <= 1e-9, draw
        assert _rh_residual(model, draw[0], point) <= 1e-12, draw
    assert points >= 400


def test_chartless_shock_integrates_no_rarefaction(monkeypatch):
    calls = []
    monkeypatch.setattr(curves, "rarefaction_curve",
                        lambda *a: calls.append(a) or rarefaction_curve(*a))
    for sigma in (-0.3, -0.1, -1e-6):
        for family in (1, 2):
            point = shock_curve(GAS_TWIN, U0, family, sigma)
            assert _rh_residual(GAS_TWIN, U0, point) <= 1e-12
    assert calls == []


# -- the chartless rarefaction against scipy's DOP853 -------------------------

# f(u) = -g(-u) for the flux g of GAS_TWIN: the Jacobian at u is g's at -u,
# so the closed-form eigenbasis has the same columns, while the Hessian
# changes sign, and with it the orientation rule; where a column of GAS_TWIN
# at -u points along its oriented r_i, the same column of MIRROR_TWIN at u
# points against its own: at each pair of mirrored states the field's
# continuity flip acts in exactly one of the two
MIRROR_TWIN = TableModel([[(-1.0, (1, 1))], [(-0.5, (0, 2)), (1.0, (1, 0))]], 1,
                         Box([-1.5, -0.6], [-0.5, 0.6]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chartless_rarefaction_is_solve_ivp_bitwise(data):
    # the package's DOP853 along the continuously oriented field against
    # solve_ivp along the Hessian-oriented one: the same state bitwise, or
    # the same error class where the reference fails or leaves the domain;
    # the three models' Hessian rules never flip between stages
    from scipy.integrate import solve_ivp

    model = data.draw(st.sampled_from([GAS_TWIN, MIRROR_TWIN, TABLE3]),
                      label="model")
    u0 = np.array([data.draw(st.floats(lo, hi), label="u0")
                   for lo, hi in zip(model.box.lows, model.box.highs)])
    family = data.draw(st.integers(1, model.n), label="family")
    sigma = data.draw(st.floats(-0.2, 0.2).filter(bool), label="sigma")
    try:
        # scipy's first-step estimate overflows to inf over a subnormal
        # interval, and warns; the package's must not warn
        with np.errstate(over="ignore"):
            sol = solve_ivp(lambda _, u: model.eigen(u).r(family), (0, sigma),
                            u0, method="DOP853", rtol=1e-12, atol=1e-13)
    except SOLVER_ERRORS as exc:
        with pytest.raises(type(exc)):
            rarefaction_curve(model, u0, family, sigma)
        return
    want = sol.y[:, -1]
    if not (sol.success and model.in_domain(want)):
        with pytest.raises(DomainError):
            rarefaction_curve(model, u0, family, sigma)
        return
    got = rarefaction_curve(model, u0, family, sigma).state
    assert got.tobytes() == want.tobytes(), (got, want)


def test_chartless_rarefaction_over_a_subnormal_strength_does_not_warn():
    # the first-step estimate divides by the subnormal interval and
    # overflows to inf, as scipy's does: the step is the least one, and the
    # state is scipy's
    from scipy.integrate import solve_ivp

    u0, sigma = np.array([0.5, 0.0]), -2.2250738585e-313
    with np.errstate(over="ignore"):
        want = solve_ivp(lambda _, u: GAS_TWIN.eigen(u).r(1), (0, sigma), u0,
                         method="DOP853", rtol=1e-12, atol=1e-13).y[:, -1]
    got = rarefaction_curve(GAS_TWIN, u0, 1, sigma).state
    assert got[1] != 0.0
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_field_and_the_eigenstructure_read_one_basis(data):
    # each field evaluation is +-eigen(u).r(family), and lambdas(u) is
    # eigen(u).lams, bitwise: no second Jacobian or basis path
    model = data.draw(st.sampled_from([GAS_TWIN, MIRROR_TWIN, TABLE3]),
                      label="model")
    state = st.tuples(*[st.floats(lo, hi) for lo, hi
                        in zip(model.box.lows, model.box.highs)])
    states = [np.array(u) for u in
              data.draw(st.lists(state, min_size=1, max_size=6), label="states")]
    family = data.draw(st.integers(1, model.n), label="family")
    field = curves._oriented_field(model, family,
                                   model.eigen(states[0]).r(family))
    for u in states:
        eig = model.eigen(u)
        r = field(u).tobytes()
        assert r in (eig.r(family).tobytes(), (-eig.r(family)).tobytes()), u
        assert model.lambdas(u).tobytes() == eig.lams.tobytes(), u


@pytest.mark.parametrize("model, u0", [(GAS_TWIN, U0),
                                       (TABLE3, np.array([0.1, -0.2, 0.3]))],
                         ids=["gas_twin", "table3"])
def test_chartless_rarefaction_evaluates_one_hessian(model, u0, monkeypatch):
    # the Hessian orients r_family at the base point only; the field
    # orients every other evaluation against the previous one
    calls = []
    hessian = type(model).hessian
    monkeypatch.setattr(type(model), "hessian",
                        lambda self, u: calls.append(u) or hessian(self, u))
    rarefaction_curve(model, u0, 1, 0.15)
    assert len(calls) == 1
