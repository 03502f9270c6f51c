import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fronttrack.curves import shock_deviation_coefficient
from fronttrack.errors import SOLVER_ERRORS, DomainError, HyperbolicityError
from fronttrack.models import (
    DOMAIN_SLACK, SPEED_SAMPLES, Box, EigenStructure, FluxModel, GasModel,
    LinearModel, TableModel, _sweep_hypotheses, crossing_time,
    verify_hypotheses,
)

from references import (
    GAS_TWIN, chart_gradient, reference_box_contains,
    reference_deviation_coefficient, reference_gas_flux,
    reference_gas_from_riemann, reference_gas_lambdas,
    reference_gas_to_riemann, reference_numeric_eigen,
    reference_sweep_hypotheses, reference_wedge_bend,
)


def test_linear_flux_is_matrix_product(diag_linear):
    out = diag_linear.flux(np.array([2.0, 3.0]))
    assert np.allclose(out, [-2.0, 3.0], atol=1e-15)


def test_gas_flux_reference_point(gas):
    # (rho u, u^2/2 + K^2 rho^(gamma-1)/(gamma-1)) at (1, 0) with K=1, gamma=2
    out = gas.flux(np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_negative_density_rejected(gas):
    with pytest.raises(DomainError):
        gas.check_domain(np.array([-1.0, 0.0]))


def test_diagonal_eigenstructure(diag_linear):
    eig = diag_linear.eigen(np.zeros(2))
    assert np.allclose(eig.lams, [-1.0, 1.0])
    assert np.allclose(eig.r(1), [1.0, 0.0])
    assert np.allclose(eig.r(2), [0.0, 1.0])


@pytest.mark.parametrize("u, expected", [
    ([1.0, 0.0], [-1.0, 1.0]),
    ([1.0, 0.5], [-0.5, 1.5]),
])
def test_gas_eigenvalues_closed_form(gas, u, expected):
    eig = gas.eigen(np.array(u))
    assert np.allclose(eig.lams, expected, atol=1e-12)


def test_gas_eigenvalues_match_numeric_jacobian(gas):
    # oracle: eigensolve of a central finite-difference Jacobian
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.uniform([0.7, -0.2], [1.3, 0.2])
        h = 1e-6
        J = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, k] = (gas.flux(u + e) - gas.flux(u - e)) / (2 * h)
        numeric = np.sort(np.linalg.eigvals(J).real)
        assert np.allclose(gas.lambdas(u), numeric, atol=1e-8)


def test_biorthonormality_and_eigen_residual(gas):
    for u in gas.admitted_grid(7):
        eig = gas.eigen(u)
        assert np.max(np.abs(eig.left @ eig.right - np.eye(2))) < 1e-10
        J = gas.jacobian(u)
        for i in (1, 2):
            r = eig.r(i)
            assert np.max(np.abs(J @ r - eig.lam(i) * r)) < 1e-8 * np.linalg.norm(r)
        assert eig.lams[1] - eig.lams[0] > 2 * gas.sound_speed(u[0]) - 1e-12


def test_hypotheses_pass_on_moderate_box():
    model = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.2], [1.5, 0.2]))
    report = verify_hypotheses(model, samples_per_axis=12)
    assert report.admitted, report.summary()
    assert report.margins["gnl_1"] > 0
    assert report.margins["gnl_2"] > 0
    assert report.margins["wedge_r1_r2"] > 0
    assert report.margins["wedge_bend_1"] > 0
    assert report.margins["wedge_bend_2"] > 0


def test_hypotheses_linear_diagonal(diag_linear):
    report = verify_hypotheses(diag_linear, samples_per_axis=5)
    assert report.checks["speed_signs"]
    assert report.checks["speed_floor"]
    assert diag_linear.p == 1
    assert report.margins["speed_floor"] == pytest.approx(1.0)


def test_chart_anchored_at_reference(gas):
    assert np.allclose(gas.to_riemann(gas.ref_state), [0.0, 0.0],
                       atol=1e-14)


def test_chart_matches_velocity_soundspeed_combination(gas):
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho, v = rng.uniform([0.7, -0.2], [1.3, 0.2])
        w = gas.to_riemann(np.array([rho, v]))
        raw1 = v - 2.0 * np.sqrt(rho)     # u - 2K rho^((gamma-1)/2)/(gamma-1)
        raw2 = v + 2.0 * np.sqrt(rho)
        anchor1, anchor2 = -2.0, 2.0      # raw chart at the (1, 0) reference
        assert w[0] == pytest.approx(raw1 - anchor1, abs=1e-12)
        assert w[1] == pytest.approx(raw2 - anchor2, abs=1e-12)


def test_opposite_coordinate_constant_along_integral_curves(gas):
    # integrate du/ds = r_1(u) independently and watch w_2 stay fixed
    from scipy.integrate import solve_ivp

    u0 = np.array([1.0, 0.0])
    w2_0 = gas.to_riemann(u0)[1]

    def field(_s, u):
        eig = gas.eigen(u)
        r = eig.r(1)
        return r / (chart_gradient(gas, u, 1) @ r)

    sol = solve_ivp(field, (0.0, -0.3), u0, method="DOP853",
                    rtol=1e-12, atol=1e-13, t_eval=np.linspace(0, -0.3, 7))
    for u in sol.y.T:
        assert abs(gas.to_riemann(u)[1] - w2_0) < 1e-6


def test_chart_round_trip(gas):
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.uniform([0.6, -0.3], [1.4, 0.3])
        back = gas.from_riemann(gas.to_riemann(u))
        assert np.max(np.abs(back - u)) < 1e-10


def test_table_model_matches_gas_with_quadratic_exponent(gas):
    # gamma = 2 makes the gas flux polynomial: (rho u, u^2/2 + rho)
    table = TableModel(
        terms=[[(1.0, (1, 1))], [(0.5, (0, 2)), (1.0, (1, 0))]],
        p=1, box=Box([0.5, -0.4], [1.5, 0.4]))
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.uniform([0.7, -0.2], [1.3, 0.2])
        assert np.allclose(table.flux(u), gas.flux(u), atol=1e-14)
        assert np.allclose(table.jacobian(u), gas.jacobian(u), atol=1e-12)
        assert np.allclose(table.lambdas(u), gas.lambdas(u), atol=1e-7)
        # H[0] = [[0, 1], [1, 0]] from rho u, H[1] = [[0, 0], [0, 1]] from u^2/2
        assert np.array_equal(table.hessian(u), [[[0, 1], [1, 0]], [[0, 0], [0, 1]]])
        eig = table.eigen(u)
        assert np.max(np.abs(eig.left @ eig.right - np.eye(2))) < 1e-10
        # the gas r_i is du/dw_i, the table's has unit length
        unit = np.linalg.norm(gas.eigen(u).right, axis=0)
        assert np.allclose(table.gnl(u), gas.gnl(u) / unit, rtol=1e-12, atol=0)


def test_crossing_time_constant_speeds(diag_linear):
    assert crossing_time(diag_linear, (0.0, 1.0)) == pytest.approx(1.0)


def test_crossing_time_gas_grid_minimum(gas):
    tau = crossing_time(gas, (0.0, 1.0))
    grid = gas.admitted_grid(SPEED_SAMPLES)
    m = min(float(np.min(np.abs(gas.lambdas(u)))) for u in grid)
    assert tau == pytest.approx(1.0 / m)


def test_crossing_time_rejects_vanishing_speeds():
    model = LinearModel([[1e-9, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        crossing_time(model, (0.0, 1.0))


# -- scalar domain checks against the numpy reference ------------------------

SLACK = 1e-9
GAS_BOX = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.4], [1.5, 0.4]))
GAS_SONIC = GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                     ref_state=[1.0, 0.98], min_speed=0.002)
LINEAR3 = LinearModel(np.diag([-1.0, 0.5, 1.0]),
                      box=Box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]))
DOMAIN_MODELS = [GAS_BOX, GAS_SONIC, LINEAR3, GAS_TWIN]


def numpy_in_domain(model, u, slack=SLACK):
    """The domain check as numpy reductions over the whole point."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        return False
    if isinstance(model, GasModel):
        rho, v = u
        if rho <= 0.0 or not abs(v) < model.sound_speed(rho) - model.min_speed:
            return False
    box = model.box
    return bool(np.all(u >= box.lows - slack) and np.all(u <= box.highs + slack))


def edge_values(model):
    """Components that sit exactly on a decision boundary of the check, one
    ulp either side of it, and the non-finite values."""
    lows, highs = model.box.lows, model.box.highs
    vals = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for edge in list(lows - SLACK) + list(highs + SLACK) + list(lows) + list(highs):
        vals += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    if isinstance(model, GasModel):
        for rho in (lows[0], 1.0, highs[0]):
            cap = model.sound_speed(np.float64(rho)) - model.min_speed
            for v in (cap, -cap):
                vals += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return [float(v) for v in vals]


def points(model):
    component = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=float(np.min(model.box.lows)) - 1.0,
                  max_value=float(np.max(model.box.highs)) + 1.0),
        st.sampled_from(edge_values(model)))
    return st.lists(component, min_size=model.n, max_size=model.n)


@pytest.mark.parametrize("model", DOMAIN_MODELS,
                         ids=["gas", "gas_sonic", "linear3", "table"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_in_domain_matches_numpy_reference(model, data):
    u = data.draw(points(model))
    assert model.in_domain(u) == numpy_in_domain(model, u)
    assert model.in_domain(np.array(u)) == numpy_in_domain(model, u)


@pytest.mark.parametrize("model", DOMAIN_MODELS,
                         ids=["gas", "gas_sonic", "linear3", "table"])
def test_in_domain_matches_numpy_reference_on_every_edge(model):
    edges = edge_values(model)
    for k in range(model.n):
        for e in edges:
            u = np.array(model.ref_state, dtype=float)
            u[k] = e
            assert model.in_domain(u) == numpy_in_domain(model, u), u
    if isinstance(model, GasModel):
        for rho in (model.box.lows[0], 1.0, model.box.highs[0]):
            for v in edges:
                u = np.array([rho, v])
                assert model.in_domain(u) == numpy_in_domain(model, u), u


# -- the float path of the box test and the gas state methods ----------------

@pytest.mark.parametrize("model", DOMAIN_MODELS,
                         ids=["gas", "gas_sonic", "linear3", "table"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_box_contains_matches_the_reference(model, data):
    u = data.draw(points(model))
    assert model.box.contains(u) == reference_box_contains(model.box, u)


@pytest.mark.parametrize("model", DOMAIN_MODELS,
                         ids=["gas", "gas_sonic", "linear3", "table"])
def test_box_contains_each_widened_bound_but_not_its_outer_neighbour(model):
    box = model.box
    for k in range(model.n):
        for bound, outward in ((box.lows[k] - DOMAIN_SLACK, -np.inf),
                               (box.highs[k] + DOMAIN_SLACK, np.inf)):
            for x, inside in ((np.nextafter(bound, -outward), True),
                              (bound, True),
                              (np.nextafter(bound, outward), False)):
                u = np.array(model.ref_state, dtype=float)
                u[k] = x
                assert box.contains(u.tolist()) is inside, (k, x)
                assert reference_box_contains(box, u) is inside, (k, x)


@pytest.mark.parametrize("model", DOMAIN_MODELS,
                         ids=["gas", "gas_sonic", "linear3", "table"])
def test_a_state_of_the_wrong_length_raises_value_error(model):
    for u in (model.ref_state[:-1], np.append(model.ref_state, 1.0)):
        with pytest.raises(ValueError):
            model.box.contains(u.tolist())
        with pytest.raises(ValueError):
            reference_box_contains(model.box, u)
        with pytest.raises(ValueError):
            model.in_domain(u)


def _bits(a):
    """The bytes of a float64 array with every NaN made the one default NaN:
    equal bytes are bitwise-equal values, signed zeros included, with NaNs
    in the same places.  IEEE 754 does not say which payload an add or a
    multiply of two NaNs keeps, and CPython's float add keeps another one
    once its bytecode is specialized, so payloads are not compared."""
    assert a.dtype == np.float64
    return np.where(np.isnan(a), np.nan, a).tobytes()


NON_FINITE = [np.nan, np.inf, -np.inf]
GAS_MODELS = st.builds(GasModel, K=st.floats(0.1, 10.0), gamma=st.floats(1.1, 2.9))


@settings(max_examples=400, deadline=None)
@given(gas=GAS_MODELS,
       # a density past 1e100 would overflow rho^(gamma - 1), which Python
       # raises and numpy returns as inf; a negative one has a complex power
       # in Python and no admissible state
       rho=st.one_of(st.floats(0.0, 1e100), st.sampled_from([-0.0, *NON_FINITE])),
       v=st.floats(allow_nan=True, allow_infinity=True))
def test_gas_state_methods_match_the_numpy_scalar_reference_bitwise(gas, rho, v):
    u = np.array([rho, v])
    for method, reference in ((gas.flux, reference_gas_flux),
                              (gas.lambdas, reference_gas_lambdas),
                              (gas.to_riemann, reference_gas_to_riemann)):
        with np.errstate(all="ignore"):
            want = _bits(reference(gas, u))
        assert _bits(method(u)) == want
        assert _bits(method([rho, v])) == want


@settings(max_examples=400, deadline=None)
@given(gas=GAS_MODELS,
       w=st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(NON_FINITE)),
                  min_size=2, max_size=2))
def test_gas_from_riemann_matches_the_numpy_scalar_reference_bitwise(gas, w):
    outcomes = []
    for inverse in (gas.from_riemann, lambda w: reference_gas_from_riemann(gas, w)):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(_bits(inverse(np.array(w))))
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# -- exact derivatives against the finite-difference and loop references -----

def reference_orient(model, u, right):
    """Eigenvector signs from central differences of the sorted eigenvalues
    along each r_i: the orientation rule before the exact derivative."""
    def lambda_i(v, i):
        return float(np.sort(np.linalg.eigvals(model.jacobian(v)).real)[i])

    h = 1e-6
    out = right.copy()
    for i in range(model.n):
        r = out[:, i]
        try:
            g = (lambda_i(u + h * r, i) - lambda_i(u - h * r, i)) / (2 * h)
        except SOLVER_ERRORS:
            g = 0.0
        if abs(g) > 1e-7:
            if g < 0:
                out[:, i] = -r
        else:
            nz = np.nonzero(np.abs(r) > 1e-12)[0]
            if len(nz) and r[nz[0]] < 0:
                out[:, i] = -r
    return out


def numpy_powers(u, ex):
    """prod_j u_j ** ex_j in numpy's array power."""
    return np.prod(np.asarray(u, dtype=float) ** np.asarray(ex))


def float_powers(u, ex):
    """prod_j u_j ** ex_j in Python's float power, multiplied in the order
    of the compiled table's rows."""
    return math.prod(float(x) ** e for x, e in zip(u, ex))


def reference_terms(terms, u, order, powers=numpy_powers):
    """The terms of the order-th derivative of the flux at u, as (entry,
    value) pairs in table order, each differentiated in its own loop; as in
    the compiled table, a derivative whose coefficient vanishes adds no
    term, not 0 * inf."""
    out = []
    with np.errstate(all="ignore"):
        for k, comp in enumerate(terms):
            for c, ex in comp:
                for js in itertools.product(range(len(terms)), repeat=order):
                    coef, dex = c, list(ex)
                    for j in js:
                        coef *= dex[j]
                        dex[j] -= 1
                    if order == 0 or coef != 0.0:
                        out.append(((k, *js), coef * powers(u, dex)))
    return out


def reference_derivative(terms, u, order, powers=numpy_powers):
    """The sum of reference_terms, entry by entry, in table order."""
    out = np.zeros((len(terms),) * (order + 1))
    with np.errstate(all="ignore"):
        for entry, value in reference_terms(terms, u, order, powers):
            out[entry] += value
    return out


LINEAR_TABLE = TableModel([[(-1.0, (1, 0))], [(1.0, (0, 1))]], 1,
                          Box([-1.0, -1.0], [1.0, 1.0]))
# lower-triangular Jacobian: speeds u1 - 2 < u1 + u2 < u3 + 2 on the box
TABLE3 = TableModel([[(-2.0, (1, 0, 0)), (0.5, (2, 0, 0))],
                     [(0.5, (0, 2, 0)), (1.0, (1, 1, 0))],
                     [(2.0, (0, 0, 1)), (0.5, (0, 0, 2)), (1.0, (1, 1, 0))]],
                    1, Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5]))


@pytest.mark.parametrize("model", [GAS_TWIN, LINEAR_TABLE, TABLE3],
                         ids=["gas_twin", "linear_table", "table3"])
def test_orientation_matches_the_finite_difference_rule(model):
    for u in model.box.grid(32):
        eig = model.eigen(u)
        assert np.array_equal(reference_orient(model, u, eig.right), eig.right), u


@pytest.mark.parametrize("model", [GAS_TWIN, LINEAR_TABLE, TABLE3],
                         ids=["gas_twin", "linear_table", "table3"])
def test_left_basis_is_the_inverse_of_the_oriented_right_basis(model):
    # the inverse is taken once, before orienting, and its rows flipped
    # with the columns of right: the same matrix as inverting after
    for u in model.box.grid(9):
        eig = model.eigen(u)
        assert np.array_equal(eig.left, np.linalg.inv(eig.right)), u


def test_model_facts_are_computed_once_per_key():
    model = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.4], [1.5, 0.4]))
    report = verify_hypotheses(model, samples_per_axis=6)
    assert verify_hypotheses(model, samples_per_axis=6) is report
    assert verify_hypotheses(model, samples_per_axis=7) is not report
    speed = model.least_speed()
    # tau is not cached: it scales with the interval
    assert crossing_time(model, (0.0, 2.0)) == 2.0 / speed
    assert crossing_time(model, (1.0, 1.5)) == 0.5 / speed
    assert set(model._facts) == {("hypotheses", 6), ("least_speed",),
                                 ("hypotheses", 7)}


def test_an_empty_grid_raises_on_every_call():
    # a box wholly past the sonic line admits no state
    model = GasModel(K=1.0, gamma=2.0, box=Box([0.5, 1.5], [1.0, 2.0]))
    for _ in range(2):
        with pytest.raises(DomainError, match="no admissible states"):
            crossing_time(model, (0.0, 1.0))
    assert model._facts == {}


def assert_term_sums_agree(got, terms, u, order):
    """got, the order-th derivative at u, has NaN, inf and -inf where the
    numpy reference has them, and elsewhere is within 1e-14 of it relative
    to the sum of the terms' magnitudes: where terms cancel, a power rounded
    an ulp apart, as numpy's array power and Python's can be, moves the sum
    by an ulp of the terms."""
    want = reference_derivative(terms, u, order)
    scale = np.zeros(got.shape)
    for entry, value in reference_terms(terms, u, order):
        scale[entry] += abs(value)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * scale[finite])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 3))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    exponents = st.tuples(*[st.integers(-2, 3)] * n)
    terms = draw(st.lists(st.lists(st.tuples(coefficient, exponents),
                                   max_size=3), min_size=n, max_size=n))
    u = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return terms, np.array(u)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_compiled_table_matches_the_term_loops(table):
    terms, u = table
    n = len(terms)
    model = TableModel(terms, 0, Box(np.zeros(n), 2 * np.ones(n)))
    np.testing.assert_allclose(model.flux(u),
                               reference_derivative(terms, u, 0, float_powers),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(model.jacobian(u),
                               reference_derivative(terms, u, 1, float_powers),
                               rtol=1e-14, atol=0)
    h = 1e-6
    fd = np.stack([(model.jacobian(u + h * e) - model.jacobian(u - h * e)) / (2 * h)
                   for e in np.eye(n)], axis=-1)
    np.testing.assert_allclose(model.hessian(u), fd, rtol=1e-6, atol=1e-6)


# states where a power overflows, divides by zero or underflows
EDGE_STATES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]


@st.composite
def edge_tables(draw):
    """Tables of exponents in -3..3 and -10**18, the overflowing exponent of
    the CLI's overflow check, at states drawn from EDGE_STATES and [-2, 2]."""
    n = draw(st.integers(1, 3))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    exponents = st.tuples(*[st.integers(-3, 3) | st.just(-10 ** 18)] * n)
    terms = draw(st.lists(st.lists(st.tuples(coefficient, exponents),
                                   max_size=3), min_size=n, max_size=n))
    u = draw(st.lists(st.sampled_from(EDGE_STATES) | st.floats(-2.0, 2.0),
                      min_size=n, max_size=n))
    return terms, u


@settings(max_examples=300, deadline=None)
@given(edge_tables())
def test_table_values_are_numpy_values_at_edge_states(table):
    # NaN, inf and -inf where numpy's array power gives them, the same
    # sums elsewhere, and no warning
    terms, u = table
    n = len(terms)
    model = TableModel(terms, 0, Box(-np.ones(n), np.ones(n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [model.flux(u), model.jacobian(u), model.hessian(u)]
    for order, values in enumerate(got):
        assert_term_sums_agree(values, terms, u, order)


def test_vanishing_derivative_terms_stay_finite_at_zero():
    # d(-u)/dv and d(v)/du have exponent 0 in the differentiated variable
    assert np.array_equal(LINEAR_TABLE.jacobian([0.0, 0.0]), [[-1, 0], [0, 1]])
    assert np.array_equal(LINEAR_TABLE.hessian([0.0, 0.0]), np.zeros((2, 2, 2)))


@pytest.mark.parametrize("gamma", [1.2, 5.0 / 3.0, 2.0, 2.8])
def test_gas_gnl_is_the_chart_constant(gamma):
    gas = GasModel(K=1.0, gamma=gamma)
    h = 1e-6
    for u in gas.admitted_grid(5):
        assert np.array_equal(gas.gnl(u), [(gamma + 1) / 4] * 2)
        eig = gas.eigen(u)
        for i in (1, 2):
            r = eig.r(i)
            fd = (gas.lambdas(u + h * r) - gas.lambdas(u - h * r)) / (2 * h)
            assert fd[i - 1] == pytest.approx((gamma + 1) / 4, abs=1e-8)


def test_table_gnl_matches_finite_difference_of_speeds():
    h = 1e-6
    for u in GAS_TWIN.admitted_grid(7):
        eig = GAS_TWIN.eigen(u)
        fd = [(GAS_TWIN.lambdas(u + h * eig.r(i))
               - GAS_TWIN.lambdas(u - h * eig.r(i)))[i - 1] / (2 * h)
              for i in (1, 2)]
        assert np.allclose(GAS_TWIN.gnl(u), fd, atol=1e-7)
        assert np.all(GAS_TWIN.gnl(u) > 0)


@pytest.mark.parametrize("model", [LinearModel([[-2.0, 0.5], [0.3, 1.5]]),
                                   LINEAR3, LINEAR_TABLE],
                         ids=["linear", "linear3", "linear_table"])
def test_linear_gnl_vanishes(model):
    for u in model.box.grid(4):
        assert np.array_equal(model.gnl(u), np.zeros(model.n))


@pytest.mark.parametrize("model", [GAS_BOX, GAS_TWIN, TABLE3, LINEAR3],
                         ids=["gas", "gas_twin", "table3", "linear3"])
def test_lambdas_are_the_eigen_speeds(model):
    # the curves and the Riemann waves read one speed from lambdas, not
    # from the eigenbasis; the two must agree to the bit
    for u in model.box.grid(9):
        assert np.array_equal(model.lambdas(u), model.eigen(u).lams), u


# -- the numeric eigenstructure against the whole-array reference ------------

EIGEN_ULPS = 8   # the 2x2 bounds in rounding units; 4.5 is the most seen
EPS = float(np.finfo(float).eps)


def is_eigenbasis(jac, eig):
    """Whether J r_i = lambda_i r_i for every column r_i of eig.right within
    EIGEN_ULPS ulps of max|J|."""
    residual = jac @ eig.right - eig.right * eig.lams
    return np.max(np.abs(residual)) <= EIGEN_ULPS * EPS * np.max(np.abs(jac))


def assert_close_eigen(jac, eig, ref):
    """The eigenstructure eig of the 2x2 matrix jac agrees with the LAPACK
    reference ref up to rounding: speeds within EIGEN_ULPS ulps of max|J|
    times kappa, the largest |l_i| (the speeds' condition number, 1 for a
    symmetric J), r_i within that over the gap, and l_i within kappa^2 times
    the r_i bound, since left is the inverse of right.  Where the first
    component of r_i lies within its bound of the orientation rule's 1e-12
    floor, either sign of r_i is right."""
    for name in ("lams", "right", "left"):
        got, want = getattr(eig, name), getattr(ref, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    kappa = max(math.hypot(*row) for row in ref.left.tolist())
    tol = EIGEN_ULPS * EPS * float(np.max(np.abs(jac))) * kappa
    tol_r = tol / float(ref.lams[1] - ref.lams[0])
    ambiguous = np.abs(np.abs(ref.right[0]) - 1e-12) <= tol_r
    signs = np.where(ambiguous & (np.sum(eig.right * ref.right, axis=0) < 0),
                     -1.0, 1.0)
    assert np.max(np.abs(eig.lams - ref.lams)) <= tol
    assert np.max(np.abs(eig.right * signs - ref.right)) <= tol_r
    assert (np.max(np.abs(eig.left * signs[:, None] - ref.left))
            <= tol_r * kappa * kappa)


def assert_same_eigen(model, u):
    """_numeric_eigen is the array reference: bitwise for n != 2, and for
    n = 2 within assert_close_eigen's bound, since the closed form cannot
    repeat LAPACK's balancing, rotations and back-transform."""
    eig, ref = model._numeric_eigen(u), reference_numeric_eigen(model, u)
    if model.n == 2:
        assert_close_eigen(model.jacobian(u), eig, ref)
        return
    for name in ("lams", "right", "left"):
        got, want = getattr(eig, name), getattr(ref, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, u)
        assert got.tobytes() == want.tobytes(), (name, u)


@pytest.mark.parametrize("model, samples", [(GAS_TWIN, 32),
                                            (LINEAR_TABLE, 16), (TABLE3, 9)],
                         ids=["gas_twin", "linear_table", "table3"])
def test_numeric_eigen_is_the_array_reference_bitwise(model, samples):
    for u in model.box.grid(samples):
        assert_same_eigen(model, u)


def test_numeric_eigen_is_the_array_reference_on_linear_matrices():
    rng = np.random.default_rng(3)
    for k in range(200):
        n = 1 + k % 4
        speeds = np.sort(rng.uniform(-2.0, 2.0, n))
        speeds += 0.1 * np.arange(n)           # keep the speeds apart
        basis = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        model = LinearModel(basis @ np.diag(speeds) @ np.linalg.inv(basis))
        u = rng.uniform(-1.0, 1.0, n)
        assert_same_eigen(model, u)


@pytest.mark.parametrize("terms, u, error, message", [
    # overflowing power
    ([[(1.0, (3,))]], [1e200], DomainError, "not finite"),
    # f = (-v, u): speeds +-i
    ([[(-1.0, (0, 1))], [(1.0, (1, 0))]], [0.5, 0.5], HyperbolicityError, "complex"),
    # imaginary parts 1e-13, below the complex test: then equal real parts
    ([[(1.0, (1, 0)), (1e-13, (0, 1))], [(-1e-13, (1, 0)), (1.0, (0, 1))]],
     [0.5, 0.5], HyperbolicityError, "coincident"),
    # f = u: one speed twice
    ([[(1.0, (1, 0))], [(1.0, (0, 1))]], [0.5, 0.5], HyperbolicityError, "coincident"),
], ids=["non_finite", "complex", "complex_below_tolerance", "coincident"])
def test_numeric_eigen_raises_as_the_array_reference(terms, u, error, message):
    n = len(terms)
    model = TableModel(terms, 0, Box(-np.ones(n), 2e200 * np.ones(n)))
    u = np.array(u)
    with pytest.raises(error, match=message) as want:
        reference_numeric_eigen(model, u)
    with pytest.raises(error) as got:
        model._numeric_eigen(u)
    assert str(got.value) == str(want.value)


class MatrixModel(FluxModel):
    """A model of two components whose Jacobian is one given matrix and
    whose Hessian is zero, so its eigenvectors are oriented by their first
    component."""

    def __init__(self, jac):
        super().__init__(2, 0, Box([-1.0, -1.0], [1.0, 1.0]))
        self.jac = jac

    def jacobian(self, u):
        return self.jac

    def hessian(self, u):
        return np.zeros((2, 2, 2))


@st.composite
def matrices_2x2(draw):
    """2x2 matrices of entries in [-1, 1], +-0.0 among them, of one of
    several shapes, scaled by 1e-150 to 1e150; a lone entry near the
    largest float or a non-finite one is one more shape."""
    unit = st.floats(-1.0, 1.0)
    a, b, c, d = draw(st.lists(unit, min_size=4, max_size=4))
    zero = draw(st.sampled_from([0.0, -0.0]))
    shape = draw(st.sampled_from(["full", "upper", "lower", "diagonal",
                                  "symmetric", "near_coincident", "extreme",
                                  "non_finite"]))
    if shape in ("lower", "diagonal"):
        b = zero
    if shape in ("upper", "diagonal"):
        c = zero
    if shape == "symmetric":
        c = b
    if shape == "near_coincident":
        # a I + delta S: speeds a + delta * (the speeds of S)
        delta = 10.0 ** -draw(st.integers(3, 16))
        s = draw(st.lists(unit, min_size=4, max_size=4))
        a, b, c, d = (a + delta * s[0], delta * s[1], delta * s[2],
                      a + delta * s[3])
    jac = np.array([[a, b], [c, d]]) * 10.0 ** draw(st.integers(-150, 150))
    if shape in ("extreme", "non_finite"):
        lone = (st.floats(1e300, 1.7e308) if shape == "extreme"
                else st.sampled_from([np.inf, -np.inf, np.nan]))
        jac[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = (
            draw(lone) * draw(st.sampled_from([1.0, -1.0])))
    return jac


def _eigen_outcome(eigen, model, u):
    """The eigenstructure, or the error's class and message."""
    try:
        return eigen(model, u)
    except (DomainError, HyperbolicityError) as exc:
        return type(exc), str(exc)


def on_a_speed_threshold(jac):
    """Whether the exact discriminant q = h^2 + bc of jac lies within
    EIGEN_ULPS ulps of max|J|^2 of the complex or the coincident test's
    threshold, where rounding, LAPACK's or the closed form's, decides."""
    a, b, c, d = map(Fraction, jac.ravel().tolist())
    m, q = (a + d) / 2, ((a - d) / 2) ** 2 + b * c
    top = max(Fraction(1), abs(m))
    slack = (EIGEN_ULPS * Fraction(EPS)
             * Fraction(float(np.max(np.abs(jac)))) ** 2)
    return min(abs(q + (Fraction(1e-12) * top) ** 2),
               abs(q - (Fraction(0.5e-10) * top) ** 2)) <= slack


@settings(max_examples=300, deadline=None)
# u = 0.01 of test_non_finite_sweep_values_fail_their_checks: h^2 overflows
# unless J is scaled first
@example(jac=np.array([[-1.52e308, 0.0], [0.0, 1.0]]))
# speeds (1 -/+ sqrt(5)) / 2: bc = 1 is lost unless b = 1e-200 is kept apart
# from the scaling by the largest entry
@example(jac=np.array([[0.0, 1e-200], [1e200, 1.0]]))
@given(jac=matrices_2x2())
def test_closed_form_basis_has_the_outcome_of_lapack(jac):
    model, u = MatrixModel(jac), np.zeros(2)
    got = _eigen_outcome(MatrixModel._numeric_eigen, model, u)
    want = _eigen_outcome(reference_numeric_eigen, model, u)
    if isinstance(got, EigenStructure) and isinstance(want, EigenStructure):
        assert is_eigenbasis(jac, got)
        # LAPACK's balancing can lose an eigenvector when the entries span
        # hundreds of orders of magnitude; there its columns are not checked
        if is_eigenbasis(jac, want):
            assert_close_eigen(jac, got, want)
    elif got != want:
        assert on_a_speed_threshold(jac), (got, want)


def test_closed_form_basis_keeps_the_product_of_a_tiny_and_a_huge_entry():
    # J = [[0, 1e-200], [1e200, 1]]: scaled by its largest entry, b = 1e-200
    # underflows, and the coincidence test once refused the speeds
    # (1 -/+ sqrt(5)) / 2, which LAPACK resolves
    jac = np.array([[0.0, 1e-200], [1e200, 1.0]])
    eig = MatrixModel(jac)._numeric_eigen(np.zeros(2))
    assert eig.lams.tolist() == pytest.approx(
        [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2], rel=2 * EPS)
    # the rows of J r - lambda r hold terms of size 1, not of max|J|
    assert np.max(np.abs(jac @ eig.right - eig.right * eig.lams)) <= 2 * EPS


# -- the curvature matrix against the finite-difference probes ---------------

TABLE_GAS_TERMS = [[(1.0, (1, 1))], [(0.5, (0, 2)), (1.0, (1, 0))]]


@st.composite
def gas_like_tables(draw):
    """The table gas (rho u, u^2/2 + rho) with up to two more monomials per
    component, and a state near (1, 0); u's exponents stay >= 0."""
    extra = st.lists(st.tuples(st.floats(-0.05, 0.05),
                               st.tuples(st.integers(-2, 3), st.integers(0, 3))),
                     max_size=2)
    terms = [comp + draw(extra) for comp in TABLE_GAS_TERMS]
    u = np.array([draw(st.floats(0.9, 1.1)), draw(st.floats(-0.1, 0.1))])
    return terms, u


@settings(max_examples=60, deadline=None)
@example(table=(TABLE_GAS_TERMS, np.array([1.0, 0.0])))
@example(table=(TABLE_GAS_TERMS, np.array([0.9, 0.1])))
@given(gas_like_tables())
def test_exact_eigen_geometry_matches_finite_differences(table):
    terms, u = table
    model = TableModel(terms, 1, Box(u - 0.02, u + 0.02))
    grid = model.box.grid(3)
    try:
        bends = [[reference_wedge_bend(model, v, i) for v in grid] for i in (1, 2)]
        devs = [reference_deviation_coefficient(model, u, i) for i in (1, 2)]
    except (DomainError, HyperbolicityError):
        assume(False)
    # the probes' O(h^2) error grows as grad(lambda) . r or the value
    # itself shrinks; on these tables it stays below 1e-8 relative
    assume(np.all(np.abs([model.gnl(v) for v in grid]) > 0.25))
    report = verify_hypotheses(model, 3)
    assert report.n_samples == len(grid)
    for i in (1, 2):
        ref = -max(bends[i - 1])
        assume(abs(ref) > 1e-2 and abs(devs[i - 1]) > 1e-2)
        assert report.margins[f"wedge_bend_{i}"] == pytest.approx(ref, rel=1e-7)
        assert (shock_deviation_coefficient(model, u, i)
                == pytest.approx(devs[i - 1], rel=1e-7))


@pytest.mark.parametrize("model", [
    GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.4], [1.5, 0.4])),
    TableModel(TABLE_GAS_TERMS, 1, Box([0.5, -0.4], [1.5, 0.4])),
], ids=["gas", "table_gas"])
def test_sweep_evaluates_the_eigenstructure_once_per_grid_point(model):
    seen = []
    eigen = model.eigen

    def recording(u):
        seen.append(tuple(np.asarray(u, dtype=float).tolist()))
        return eigen(u)

    model.eigen = recording
    report = verify_hypotheses(model, 7)
    grid = {tuple(u) for u in model.box.grid(7).tolist()}
    assert set(seen) <= grid
    assert len(seen) == len(set(seen)) == report.n_samples


# -- the tabled sweep against the running accumulators ----------------------

# f = (v, u + u^2): speeds +-sqrt(1 + 2u), complex for u < -1/2
CORNER_TABLE = TableModel([[(1.0, (0, 1))], [(1.0, (1, 0)), (1.0, (2, 0))]], 1,
                          Box([-1.0, -1.0], [1.0, 1.0]))
# f = (u^3/3 - 2u, v + v^2/2): r_1 turns over at u = 0 and no eigenvector
# field bends, so a bend margin is a tie of zeros of both signs
DECOUPLED_TABLE = TableModel([[(1 / 3, (3, 0)), (-2.0, (1, 0))],
                              [(1.0, (0, 1)), (0.5, (0, 2))]], 1,
                             Box([-1.0, -0.5], [1.0, 0.5]))


@st.composite
def swept_models(draw):
    """Gas models with random K and gamma on boxes that may cross the sonic
    line, the table gas with up to two more monomials per component, and
    tables that are linear, 3x3, decoupled or not hyperbolic in a corner."""
    kind = draw(st.sampled_from(["gas", "table_gas", "tables"]))
    if kind == "gas":
        lows = np.array([draw(st.floats(0.2, 1.5)), draw(st.floats(-1.5, 1.0))])
        spans = [draw(st.floats(0.05, 1.0)) for _ in range(2)]
        return GasModel(K=draw(st.floats(0.5, 2.0)),
                        gamma=draw(st.floats(1.05, 2.95)),
                        box=Box(lows, lows + spans))
    if kind == "table_gas":
        terms, _ = draw(gas_like_tables())
        return TableModel(terms, 1, Box([0.5, -0.4], [1.5, 0.4]))
    return draw(st.sampled_from([CORNER_TABLE, DECOUPLED_TABLE, LINEAR_TABLE,
                                 TABLE3]))


def _sweep_outcome(sweep, model, samples):
    """Everything a report says, margins by repr so that a zero keeps its
    sign and violations as a multiset; or the error's class and message."""
    try:
        report = sweep(model, samples)
    except SOLVER_ERRORS as exc:
        return type(exc), str(exc)
    return (report.checks, {k: repr(v) for k, v in report.margins.items()},
            report.n_samples, report.summary(),
            Counter((name, tuple(u.tolist())) for name, u in report.violations))


@settings(max_examples=80, deadline=None)
@example(model=CORNER_TABLE, samples=12)
@example(model=LINEAR_TABLE, samples=5)
@example(model=DECOUPLED_TABLE, samples=6)
@given(model=swept_models(), samples=st.integers(3, 12))
def test_tabled_sweep_matches_the_running_accumulators(model, samples):
    assert (_sweep_outcome(_sweep_hypotheses, model, samples)
            == _sweep_outcome(reference_sweep_hypotheses, model, samples))


def test_non_finite_sweep_values_fail_their_checks():
    # f = (-u + u^-152, v + v^2/2): u^-152 overflows the Hessian at u = 0.01
    # while the Jacobian stays finite, so grad(lambda_1) . r_1 is inf and
    # grad(lambda_2) . r_2 is 0 * inf = NaN at every grid point
    model = TableModel([[(-1.0, (1, 0)), (1.0, (-152, 0))],
                        [(1.0, (0, 1)), (0.5, (0, 2))]], 1,
                       Box([0.01, -0.1], [0.0101, 0.1]))
    report = verify_hypotheses(model, 3)
    assert report.n_samples == 9
    for name in ("gnl_1", "gnl_2", "wedge_bend_1", "wedge_bend_2"):
        assert not report.checks[name], name
        assert sum(check == name for check, _ in report.violations) == 9
    assert report.margins["gnl_1"] == np.inf
    assert np.isnan(report.margins["gnl_2"])
    assert "gnl_2              FAIL  margin= nan" in report.summary().splitlines()
    # the finite checks keep their margins
    assert report.checks["speed_signs"] and report.checks["speed_floor"]
    assert report.margins["speed_floor"] == pytest.approx(0.9)
