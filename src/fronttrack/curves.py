"""Elementary wave curves: rarefactions, Hugoniot loci, composite Lax curves.

The strength parameter sigma is the jump of the corresponding Riemann
coordinate across the wave for models with a chart (gas, linear), and the
signed projection on the left eigenvector at the base point otherwise.  With
the chart normalization the rarefaction curve is the exact flow of r_i.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RadiusError
from .models import GNL_FLOOR, _curvature, wedge
from .newton import newton_solve, scalar_root

SIGMA_NULL = 1e-12


@dataclass(frozen=True)
class CurvePoint:
    """Point on a parametrized wave curve through some base state."""

    state: np.ndarray
    speed: float
    sigma: float
    residual: float = 0.0


def _check_radius(model, sigma):
    if abs(sigma) > model.curve_radius:
        raise RadiusError(
            f"|sigma|={abs(sigma):.3g} beyond curve radius {model.curve_radius}")


def rarefaction_curve(model, u0, family, sigma):
    """Integral curve of r_family through u0, evaluated at parameter sigma."""
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    _check_radius(model, sigma)
    if sigma == 0.0:
        return CurvePoint(u0.copy(), float(model.lambdas(u0)[family - 1]), 0.0)

    if model.kind == "linear":
        state = u0 + sigma * model.eigen(u0).r(family)
    elif model.has_chart:
        w = model.to_riemann(u0)
        w[family - 1] += sigma
        state = model.from_riemann(w)
    else:
        # imported here so that only a chartless model imports
        # scipy.integrate; the numeric eigenvectors have unit length, so the
        # flow parameter is the chartless strength sigma
        from scipy.integrate import solve_ivp
        sol = solve_ivp(lambda _, u: model.eigen(u).r(family),
                        (0.0, sigma), u0, method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=False)
        if not sol.success:
            raise DomainError(f"rarefaction integration failed: {sol.message}")
        state = sol.y[:, -1]
    model.check_domain(state)
    return CurvePoint(state, float(model.lambdas(state)[family - 1]),
                      float(sigma))


def shock_curve(model, u0, family, sigma):
    """Point of the Hugoniot locus through u0 at strength sigma.

    A linear shock is the rarefaction point, moving at the characteristic
    speed.  The gas model gives the point in closed form up to a scalar root
    (``GasModel.hugoniot_point``).  Chartless models solve Rankine-Hugoniot
    together with the strength normalization by Newton, seeded at the
    eigenpair of u0: the state u0 + sigma r_family(u0) and the speed
    lambda_family(u0).  The locus is tangent to r_family at u0 (Lax 1957),
    so the seed state is O(sigma^2) from the root and no curve is
    integrated for it.  Either way the RH residual is measured from the
    flux.
    Admissibility is not enforced here; sigma > 0 parametrizes the
    non-entropic branch.
    """
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    _check_radius(model, sigma)
    if sigma == 0.0:
        return CurvePoint(u0.copy(), float(model.lambdas(u0)[family - 1]), 0.0)
    f0 = model.flux(u0)
    if model.kind == "linear":
        eig = model.eigen(u0)
        state, speed = u0 + sigma * eig.r(family), eig.lam(family)
    elif model.kind == "gas":
        state, speed = model.hugoniot_point(u0, family, sigma)
    else:
        state, speed = _newton_shock(model, u0, f0, family, sigma)
    model.check_domain(state)
    residual = float(np.max(np.abs(model.flux(state) - f0 - speed * (state - u0))))
    return CurvePoint(state, speed, float(sigma), residual)


def _newton_shock(model, u0, f0, family, sigma):
    """State and speed from Newton on Rankine-Hugoniot plus the strength
    equation l_family(u0) . (u - u0) = sigma, for chartless models, from the
    analytic Jacobian at the seed."""
    n = model.n
    eig0 = model.eigen(u0)
    l_row = eig0.l(family)
    x0 = np.concatenate([u0 + sigma * eig0.r(family), [eig0.lam(family)]])

    def fn(x):
        u, s = x[:n], x[n]
        out = np.empty(n + 1)
        out[:n] = model.flux(u) - f0 - s * (u - u0)
        out[n] = float(l_row @ (u - u0)) - sigma
        return out

    jac0 = np.zeros((n + 1, n + 1))
    jac0[:n, :n] = model.jacobian(x0[:n]) - x0[n] * np.eye(n)
    jac0[:n, n] = -(x0[:n] - u0)
    jac0[n, :n] = l_row
    x = newton_solve(fn, x0, jac0, f"(shock curve family {family})")
    return x[:n], float(x[n])


def lax_curve(model, u0, family, sigma):
    """Composite curve: rarefaction branch for sigma >= 0, shock for sigma < 0."""
    if sigma >= 0.0:
        return rarefaction_curve(model, u0, family, sigma)
    return shock_curve(model, u0, family, sigma)


def _gnl(model, u, family):
    """grad(lambda_family) . r_family at u, which is d(lambda)/d(sigma) along
    the rarefaction curve; a linearly degenerate family raises DomainError."""
    g = float(model.gnl(u)[family - 1])
    if not abs(g) > GNL_FLOOR:
        raise DomainError(f"family {family} is not genuinely nonlinear at {u}: "
                          f"|grad(lambda) . r| = {abs(g):.3g}")
    return g


def rarefaction_at_speed_offset(model, u0, family, dlam):
    """Rarefaction-curve point where lambda_family has moved by dlam.

    This is the speed-based reparametrization used when comparing shock and
    rarefaction branches.  Genuine nonlinearity makes lambda_family increase
    along the curve at the rate grad(lambda) . r, so ``scalar_root`` finds
    sigma between 0 and +-curve_radius, on the side of the sign of dlam.
    """
    u0 = np.asarray(u0, dtype=float)
    lam0 = float(model.lambdas(u0)[family - 1])

    def speed_gap(sig):
        cp = rarefaction_curve(model, u0, family, sig)
        return cp.speed - lam0 - dlam, _gnl(model, cp.state, family)

    bracket = (0.0, model.curve_radius) if dlam > 0.0 else (-model.curve_radius, 0.0)
    sig = scalar_root(speed_gap, dlam / _gnl(model, u0, family), *bracket,
                      "(speed reparametrization)")
    return rarefaction_curve(model, u0, family, sig)


def shock_deviation_coefficient(model, u0, family):
    """Leading cubic coefficient of the shock curve's deviation from the
    speed-reparametrized rarefaction curve, measured along the opposite
    eigenvector.

    For 2x2 systems with clockwise-turning eigenvector fields this is
    strictly negative, which is what forces same-family shock interactions
    to emit a shock of the other family.  In closed form it is
    C[o, i] / (2 g_i^2 (lambda_o - lambda_i)^2), with C the curvature matrix
    of ``models._curvature`` and g_i = grad(lambda_i) . r_i.
    """
    if model.n != 2:
        raise ValueError("deviation coefficient is defined for 2x2 systems")
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    g = _gnl(model, u0, family)
    other = 2 if family == 1 else 1
    eig = model.eigen(u0)
    curv = _curvature(model.hessian(u0), eig.right, eig.left)
    gap = eig.lam(other) - eig.lam(family)
    return float(curv[other - 1, family - 1]) / (2.0 * g * g * gap * gap)


def hugoniot_offset(model, u0, family, sigma_speed):
    """Signed offset (in units of the opposite eigenvector at u0) between the
    Hugoniot locus and the speed-reparametrized rarefaction point.

    Independent construction used to cross-check the closed-form deviation
    coefficient: the locus is intersected with the straight line through the
    rarefaction point in the r_other direction, via a scalar root solve on
    the Rankine-Hugoniot wedge equation.
    """
    if model.n != 2:
        raise ValueError("2x2 only")
    u0 = np.asarray(u0, dtype=float)
    other = 2 if family == 1 else 1
    r_other = model.eigen(u0).r(other)
    base = rarefaction_at_speed_offset(model, u0, family, sigma_speed).state
    f0 = model.flux(u0)

    def rh_wedge(t):
        """The wedge and its derivative in t."""
        v = base + t * r_other
        df, dv = model.flux(v) - f0, v - u0
        return (wedge(df, dv),
                wedge(model.jacobian(v) @ r_other, dv) + wedge(df, r_other))

    span = max(1e-6, 0.5 * abs(sigma_speed) ** 3)
    for _ in range(60):
        if rh_wedge(-span)[0] * rh_wedge(span)[0] <= 0:
            break
        span *= 2.0
    else:
        raise DomainError("could not bracket the Hugoniot offset")
    sign = 1.0 if rh_wedge(-span)[0] <= 0.0 else -1.0   # solve the increasing one
    return scalar_root(lambda t: [sign * g for g in rh_wedge(t)], 0.0,
                       -span, span, "(Hugoniot offset)")
