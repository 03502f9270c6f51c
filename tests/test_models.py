import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fronttrack.errors import SOLVER_ERRORS, DomainError
from fronttrack.models import (
    Box, GasModel, LinearModel, TableModel, crossing_time, verify_hypotheses,
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


def test_hypotheses_detect_sonic_crossing():
    # lambda_1 = u - sqrt(rho) crosses zero inside this box (e.g. u=1.1, rho=1)
    model = GasModel(K=1.0, gamma=2.0, box=Box([0.9, 0.8], [1.1, 1.2]))
    report = verify_hypotheses(model, samples_per_axis=9)
    assert not report.checks["speed_floor"]
    assert any(name == "speed_floor" for name, _ in report.violations)


def test_hypotheses_linear_diagonal(diag_linear):
    report = verify_hypotheses(diag_linear, samples_per_axis=5)
    assert report.checks["speed_signs"]
    assert report.checks["speed_floor"]
    assert diag_linear.p == 1
    assert report.min_abs_speed == pytest.approx(1.0)


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
        return r / (gas.chart_gradient(u, 1) @ r)

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
    tau = crossing_time(gas, (0.0, 1.0), samples_per_axis=21)
    grid = gas.admitted_grid(21)
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
                      box=Box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]),
                      predicate=lambda u: u[0] + u[1] < 1.0)
TABLE = TableModel([[(1.0, (1, 1))], [(0.5, (0, 2)), (1.0, (1, 0))]], 1,
                   Box([0.5, -0.6], [1.5, 0.6]))
DOMAIN_MODELS = [GAS_BOX, GAS_SONIC, LINEAR3, TABLE]


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
    if not (np.all(u >= box.lows - slack) and np.all(u <= box.highs + slack)):
        return False
    return model.predicate is None or bool(model.predicate(u))


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


def reference_flux(terms, u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(len(terms))
    for k, comp in enumerate(terms):
        for c, ex in comp:
            out[k] += c * np.prod(u ** np.asarray(ex))
    return out


def reference_jacobian(terms, u):
    u = np.asarray(u, dtype=float)
    n = len(terms)
    J = np.zeros((n, n))
    for k, comp in enumerate(terms):
        for c, ex in comp:
            for j in range(n):
                if ex[j] == 0:
                    continue
                dex = list(ex)
                dex[j] -= 1
                J[k, j] += c * ex[j] * np.prod(u ** np.asarray(dex))
    return J


LINEAR_TABLE = TableModel([[(-1.0, (1, 0))], [(1.0, (0, 1))]], 1,
                          Box([-1.0, -1.0], [1.0, 1.0]))
# lower-triangular Jacobian: speeds u1 - 2 < u1 + u2 < u3 + 2 on the box
TABLE3 = TableModel([[(-2.0, (1, 0, 0)), (0.5, (2, 0, 0))],
                     [(0.5, (0, 2, 0)), (1.0, (1, 1, 0))],
                     [(2.0, (0, 0, 1)), (0.5, (0, 0, 2)), (1.0, (1, 1, 0))]],
                    1, Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5]))


@pytest.mark.parametrize("model", [TABLE, LINEAR_TABLE, TABLE3],
                         ids=["gas_twin", "linear_table", "table3"])
def test_orientation_matches_the_finite_difference_rule(model):
    for u in model.box.grid(32):
        eig = model.eigen(u)
        assert np.array_equal(reference_orient(model, u, eig.right), eig.right), u


@pytest.mark.parametrize("model", [TABLE, LINEAR_TABLE, TABLE3],
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
    assert verify_hypotheses(model, 6, respect_predicate=True) is not report
    assert verify_hypotheses(model, samples_per_axis=7) is not report
    speed = model.least_speed(9)
    # tau is not cached: it scales with the interval
    assert crossing_time(model, (0.0, 2.0), 9) == 2.0 / speed
    assert crossing_time(model, (1.0, 1.5), 9) == 0.5 / speed
    assert set(model._facts) == {("hypotheses", 6, False), ("least_speed", 9),
                                 ("hypotheses", 6, True), ("hypotheses", 7, False)}


def test_an_empty_grid_raises_on_every_call():
    # a box wholly past the sonic line admits no state
    model = GasModel(K=1.0, gamma=2.0, box=Box([0.5, 1.5], [1.0, 2.0]))
    for _ in range(2):
        with pytest.raises(DomainError, match="no admissible states"):
            crossing_time(model, (0.0, 1.0))
    assert model._facts == {}


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
    np.testing.assert_allclose(model.flux(u), reference_flux(terms, u),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(model.jacobian(u), reference_jacobian(terms, u),
                               rtol=1e-14, atol=0)
    h = 1e-6
    fd = np.stack([(model.jacobian(u + h * e) - model.jacobian(u - h * e)) / (2 * h)
                   for e in np.eye(n)], axis=-1)
    np.testing.assert_allclose(model.hessian(u), fd, rtol=1e-6, atol=1e-6)


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
    for u in TABLE.admitted_grid(7):
        eig = TABLE.eigen(u)
        fd = [(TABLE.lambdas(u + h * eig.r(i)) - TABLE.lambdas(u - h * eig.r(i)))[i - 1]
              / (2 * h) for i in (1, 2)]
        assert np.allclose(TABLE.gnl(u), fd, atol=1e-7)
        assert np.all(TABLE.gnl(u) > 0)


@pytest.mark.parametrize("model", [LinearModel([[-2.0, 0.5], [0.3, 1.5]]),
                                   LINEAR3, LINEAR_TABLE],
                         ids=["linear", "linear3", "linear_table"])
def test_linear_gnl_vanishes(model):
    for u in model.box.grid(4):
        assert np.array_equal(model.gnl(u), np.zeros(model.n))
