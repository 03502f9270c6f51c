"""Damped Newton iteration for small dense systems, on a Jacobian that starts
exact and is kept current by Broyden's rank-one update, and a bracketed
Newton for monotone scalar equations."""

import math

import numpy as np

from .errors import SOLVER_ERRORS, ConvergenceError

RES_TOL = 1e-12
STEP_TOL = 1e-14
MAX_ITER = 50
ROOT_MAX_ITER = 100
ROOT_STEP_ULPS = 4.0


def newton_solve(fn, x0, jac0, context=""):
    """Solve fn(x) = 0 with damped (backtracking) Newton from the Jacobian
    matrix jac0 of fn at x0, updated after each accepted step s, with residual
    change df, by Broyden's rule J += outer(df - J s, s) / (s . s) (1965).

    Converges when the residual max-norm drops below RES_TOL or the Newton
    step below STEP_TOL; raises ConvergenceError otherwise.  The last call
    of fn is at the x returned, so a caller may keep what that call made.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fn(x), dtype=float)
    J = np.array(jac0, dtype=float)
    best = float(np.max(np.abs(f)))
    for _ in range(MAX_ITER):
        if best < RES_TOL:
            return x
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Newton system {context}") from exc
        if float(np.max(np.abs(dx))) < STEP_TOL:
            return x
        t = 1.0
        for _ in range(40):
            x_try = x + t * dx
            try:
                f_try = np.asarray(fn(x_try), dtype=float)
                r_try = float(np.max(np.abs(f_try)))
            except SOLVER_ERRORS:
                r_try = np.inf
            if np.isfinite(r_try) and r_try < best:
                s = x_try - x
                J += np.outer(f_try - f - J @ s, s) / (s @ s)
                x, f, best = x_try, f_try, r_try
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search stalled {context} (residual {best:.3e})")
    if best < RES_TOL:
        return x
    raise ConvergenceError(
        f"Newton did not converge {context} (residual {best:.3e})")


def scalar_root(fn, x, lo, hi, context=""):
    """Root of a strictly increasing scalar function inside (lo, hi).

    ``fn(x)`` returns the value and the slope at x.  Every evaluation narrows
    the bracket to the side its sign allows.  Stops on an exact zero or on a
    Newton step within ROOT_STEP_ULPS ulps of x, so the last digits may be
    roundoff.  A larger step that does not land strictly inside the bracket
    is replaced by bisection, or by doubling x while ``hi`` is infinite
    (which needs lo >= 0); when no float is left strictly inside, x is
    returned.  Raises ConvergenceError after ROOT_MAX_ITER evaluations.
    """
    for _ in range(ROOT_MAX_ITER):
        g, dg = fn(x)
        if g == 0.0:
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        # a slope that is not positive is roundoff: bisect
        nxt = x - g / dg if dg > 0.0 else math.nan
        if abs(nxt - x) <= ROOT_STEP_ULPS * math.ulp(x):
            return nxt
        if not lo < nxt < hi:
            nxt = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x
        x = nxt
    raise ConvergenceError(f"scalar root did not converge {context}")
