"""Elementary wave curves: rarefactions, Hugoniot loci, composite Lax curves.

The strength parameter sigma is the jump of the corresponding Riemann
coordinate across the wave for models with a chart (gas, linear), and the
signed projection on the left eigenvector at the base point otherwise.  With
the chart normalization the rarefaction curve is the exact flow of r_i.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, RadiusError
from .models import FD_WEDGE_STEP, wedge
from .newton import newton_solve

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


def _sigma_direction(model, u, family):
    """Unit eigenvector field; its flow parameter is a chartless model's
    strength sigma."""
    r = model.eigen(u).r(family)
    return r / float(np.linalg.norm(r))


def rarefaction_curve(model, u0, family, sigma):
    """Integral curve of r_family through u0, evaluated at parameter sigma."""
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    _check_radius(model, sigma)
    if sigma == 0.0:
        return CurvePoint(u0.copy(), model.eigen(u0).lam(family), 0.0)

    if model.kind == "linear":
        state = u0 + sigma * model.eigen(u0).r(family)
    elif model.has_chart:
        w = model.to_riemann(u0)
        w[family - 1] += sigma
        state = model.from_riemann(w)
    else:
        sol = solve_ivp(lambda _, u: _sigma_direction(model, u, family),
                        (0.0, sigma), u0, method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=False)
        if not sol.success:
            raise DomainError(f"rarefaction integration failed: {sol.message}")
        state = sol.y[:, -1]
    model.check_domain(state)
    return CurvePoint(state, model.eigen(state).lam(family), float(sigma))


def shock_curve(model, u0, family, sigma):
    """Point of the Hugoniot locus through u0 at strength sigma.

    A linear shock is the rarefaction point, moving at the characteristic
    speed.  The gas model gives the point in closed form up to a scalar root
    (``GasModel.hugoniot_point``).  Chartless models solve Rankine-Hugoniot
    together with the strength normalization by Newton, seeded at the
    rarefaction point (second-order tangency makes the seed quadratically
    convergent).  Either way the RH residual is measured from the flux.
    Admissibility is not enforced here; sigma > 0 parametrizes the
    non-entropic branch.
    """
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    _check_radius(model, sigma)
    if sigma == 0.0:
        return CurvePoint(u0.copy(), model.eigen(u0).lam(family), 0.0)
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
    equation l_family(u0) . (u - u0) = sigma, for chartless models."""
    n = model.n
    eig0 = model.eigen(u0)
    l_row = eig0.l(family)
    seed = rarefaction_curve(model, u0, family, sigma)
    x0 = np.concatenate([seed.state, [0.5 * (eig0.lam(family) + seed.speed)]])

    def fn(x):
        u, s = x[:n], x[n]
        out = np.empty(n + 1)
        out[:n] = model.flux(u) - f0 - s * (u - u0)
        out[n] = float(l_row @ (u - u0)) - sigma
        return out

    def jac(x):
        u, s = x[:n], x[n]
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = model.jacobian(u) - s * np.eye(n)
        J[:n, n] = -(u - u0)
        J[n, :n] = l_row
        return J

    x = newton_solve(fn, x0, jac=jac, context=f"(shock curve family {family})")
    return x[:n], float(x[n])


def lax_curve(model, u0, family, sigma):
    """Composite curve: rarefaction branch for sigma >= 0, shock for sigma < 0."""
    if sigma >= 0.0:
        return rarefaction_curve(model, u0, family, sigma)
    return shock_curve(model, u0, family, sigma)


def rarefaction_at_speed_offset(model, u0, family, dlam):
    """Rarefaction-curve point where lambda_family has moved by dlam.

    This is the speed-based reparametrization used when comparing shock and
    rarefaction branches; found by a scalar Newton solve on the sigma
    parameter (genuine nonlinearity makes the map monotone).
    """
    u0 = np.asarray(u0, dtype=float)
    lam0 = model.eigen(u0).lam(family)
    if dlam == 0.0:
        return rarefaction_curve(model, u0, family, 0.0)

    h0 = 1e-6
    g = (rarefaction_curve(model, u0, family, h0).speed
         - rarefaction_curve(model, u0, family, -h0).speed) / (2 * h0)
    sig = dlam / g
    for _ in range(60):
        cp = rarefaction_curve(model, u0, family, sig)
        err = cp.speed - lam0 - dlam
        if abs(err) < 1e-13:
            return cp
        h = max(1e-7, 1e-7 * abs(sig))
        slope = (rarefaction_curve(model, u0, family, sig + h).speed
                 - cp.speed) / h
        sig -= err / slope
    raise ConvergenceError("speed reparametrization did not converge")


def _lambda_normalized_field(model, family):
    def field(u):
        eig = model.eigen(u)
        r = eig.r(family)
        h = 1e-6
        g = (model.lambdas(u + h * r)[family - 1]
             - model.lambdas(u - h * r)[family - 1]) / (2 * h)
        return r / g
    return field


def shock_deviation_coefficient(model, u0, family):
    """Leading cubic coefficient of the shock curve's deviation from the
    speed-reparametrized rarefaction curve, measured along the opposite
    eigenvector.

    For 2x2 systems with clockwise-turning eigenvector fields this is
    strictly negative, which is what forces same-family shock interactions
    to emit a shock of the other family.
    """
    if model.n != 2:
        raise ValueError("deviation coefficient is defined for 2x2 systems")
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    other = 2 if family == 1 else 1
    eig = model.eigen(u0)
    field = _lambda_normalized_field(model, family)
    rt = field(u0)
    h = FD_WEDGE_STEP
    drr = (field(u0 + h * rt) - field(u0 - h * rt)) / (2 * h)
    num = wedge(drr, rt)
    lam_gap = eig.lam(other) - eig.lam(family)
    denom_wedge = wedge(rt, eig.r(other))
    if abs(denom_wedge) < 1e-12:
        raise DomainError("eigenvector wedge vanishes; coefficient undefined")
    return num / (2.0 * lam_gap * denom_wedge)


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
        v = base + t * r_other
        return wedge(model.flux(v) - f0, v - u0)

    span = max(1e-6, 0.5 * abs(sigma_speed) ** 3)
    lo, hi = -span, span
    for _ in range(60):
        if rh_wedge(lo) * rh_wedge(hi) <= 0:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise DomainError("could not bracket the Hugoniot offset")
    return brentq(rh_wedge, lo, hi, xtol=1e-16, rtol=8.9e-16)
