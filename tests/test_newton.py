import math

import numpy as np
import pytest

from fronttrack.errors import ConvergenceError, DomainError
from fronttrack.newton import RES_TOL, ROOT_MAX_ITER, newton_solve, scalar_root


def test_newton_line_search_skips_solver_errors():
    # the full first step lands beyond x = 1.5, where the "curve" leaves
    # its domain; the line search backtracks instead of failing
    def fn(x):
        if x[0] > 1.5:
            raise DomainError("outside")
        return np.array([x[0] ** 2 - 2.0])

    x = newton_solve(fn, np.array([0.5]), np.array([[1.0]]))
    assert x[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_newton_line_search_lets_programming_errors_through():
    x0 = np.array([0.5])

    def fn(x):
        if x[0] != x0[0]:
            raise TypeError("bad operand")
        return np.array([x[0] ** 2 - 2.0])

    with pytest.raises(TypeError, match="bad operand"):
        newton_solve(fn, x0, np.array([[1.0]]))


def test_scalar_root_stops_at_roundoff():
    # a value that is pure noise within a few ulps of the root must not
    # keep the iteration going
    rng = np.random.default_rng(5)
    calls = []

    def fn(x):
        calls.append(x)
        return (x - 1.0 / 3.0) * 1e3 + rng.uniform(-1e-12, 1e-12), 1e3

    x = scalar_root(fn, 0.9, 0.0, math.inf)
    assert abs(x - 1.0 / 3.0) < 1e-14
    assert len(calls) <= 20


def test_scalar_root_bisects_without_a_usable_slope():
    def fn(x):
        return x ** 3 - 0.125, 0.0

    x = scalar_root(fn, 2.0, 0.0, 4.0)
    assert x == pytest.approx(0.5, abs=1e-15)


def test_scalar_root_gives_up_after_max_iterations():
    calls = []

    def fn(x):
        calls.append(x)
        return x - 1e-300, 1e-310   # Newton steps far past hi: bisection

    with pytest.raises(ConvergenceError):
        scalar_root(fn, 1.0, -1e308, 1e308)
    assert len(calls) == ROOT_MAX_ITER


def test_newton_on_an_affine_map_from_its_exact_jacobian_takes_one_step():
    A = np.array([[3.0, 1.0, 0.0], [1.0, 4.0, -1.0], [0.5, 0.0, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    calls = []

    def fn(x):
        calls.append(x.copy())
        return A @ x - b

    x = newton_solve(fn, np.zeros(3), A)
    assert len(calls) == 2      # the start and the one full step
    assert np.max(np.abs(A @ x - b)) < RES_TOL


def test_newton_converges_on_a_nonlinear_system_from_an_inexact_seed():
    # x^2 + y^2 = 4, x y = 1; the seed is the Jacobian at another point,
    # so only the Broyden updates bring it to the root's
    def fn(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] * x[1] - 1.0])

    x = newton_solve(fn, np.array([2.0, 0.5]), np.array([[3.0, 0.0], [0.0, 3.0]]))
    assert np.max(np.abs(fn(x))) < RES_TOL
    root_x = math.sqrt(2.0 + math.sqrt(3.0))
    assert x == pytest.approx([root_x, 1.0 / root_x], abs=1e-12)


def _outside_beyond_1_5(x):
    if x[0] > 1.5:
        raise DomainError("outside")
    return np.array([x[0] ** 2 - 2.0])


@pytest.mark.parametrize("fn, x0, jac0", [
    # the start is the root: no step
    (lambda x: np.array([x[0] ** 2 - 4.0]), [2.0], [[4.0]]),
    # one full step from the exact Jacobian
    (lambda x: np.array([[3.0, 1.0], [1.0, 4.0]]) @ x - np.array([1.0, -2.0]),
     [0.0, 0.0], [[3.0, 1.0], [1.0, 4.0]]),
    # the first step leaves the domain and is halved
    (_outside_beyond_1_5, [0.5], [[1.0]]),
    # the residual's roundoff stays above RES_TOL: the step test returns
    (lambda x: np.array([1e8 * (x[0] ** 2 - 2.0)]), [1.0], [[2e8]]),
], ids=["exact_start", "affine", "backtracking", "step_tol"])
def test_last_evaluation_is_the_returned_root(fn, x0, jac0):
    calls = []

    def recorded(x):
        calls.append(x.copy())
        return fn(x)

    x = newton_solve(recorded, np.array(x0), np.array(jac0))
    assert calls[-1].tobytes() == x.tobytes()
