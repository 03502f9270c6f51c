"""Elementary wave curves: rarefactions, Hugoniot loci, composite Lax curves.

The strength parameter sigma is the jump of the corresponding Riemann
coordinate across the wave for models with a chart (gas, linear), and the
signed projection on the left eigenvector at the base point otherwise.  With
the chart normalization the rarefaction curve is the exact flow of r_i; a
chartless rarefaction integrates that flow with the package's own DOP853
(Hairer, Norsett & Wanner 1993, section II.5).
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RadiusError
from .models import GNL_FLOOR, _curvature, wedge
from .newton import newton_solve, scalar_root

SIGMA_NULL = 1e-12

# DOP853 as scipy.integrate's solve_ivp steps it, with its coefficients and
# arithmetic, so a curve point is the one solve_ivp(..., method="DOP853")
# returns, bitwise: the rows of A below the diagonal, the weights B, and the
# fifth- and third-order error weights E5 and E3 over the 12 stages and the
# end point.  The field does not depend on time, so the nodes C are not
# needed, and no dense output is formed.
_A = [np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636])]
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
                0.0])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
                0.0])
RTOL, ATOL = 1e-12, 1e-13
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8   # of the seventh-order error estimate


@dataclass(frozen=True)
class CurvePoint:
    """Point on a parametrized wave curve through some base state; a shock
    point's speed is its Rankine-Hugoniot speed, whose residual
    ``riemann._solution`` measures."""

    state: np.ndarray
    speed: float
    sigma: float


def _check_radius(model, sigma):
    if abs(sigma) > model.curve_radius:
        raise RadiusError(
            f"|sigma|={abs(sigma):.3g} beyond curve radius {model.curve_radius}")


def rarefaction_curve(model, u0, family, sigma):
    """Integral curve of r_family through u0, evaluated at parameter sigma.

    A linear curve is the line u0 + sigma r_family, and a charted one moves
    w_family by sigma.  A chartless curve is integrated by ``_dop853`` at
    rtol 1e-12 and atol 1e-13 along ``_oriented_field``, which evaluates
    the Hessian only at u0."""
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
        # the numeric eigenvectors have unit length, so the flow parameter
        # is the chartless strength sigma
        r0 = model.eigen(u0).r(family)
        state = _dop853(_oriented_field(model, family, r0), u0, r0,
                        float(sigma))
    model.check_domain(state)
    return CurvePoint(state, float(model.lambdas(state)[family - 1]),
                      float(sigma))


def _oriented_field(model, family, r0):
    """The field u -> r_family(u), oriented continuously from r0 = r_family
    at the base point: each evaluation takes the unit column of
    ``model._sorted_basis`` as Python floats, flips it where its dot
    product with the previous evaluation is negative, and returns it as
    one array.  Where the Hessian rule of ``model.eigen`` holds the same
    sign, the two fields agree bitwise; near a point where grad(lambda) . r
    vanishes the Hessian rule can flip between stages, and the continuous
    one does not."""
    prev = r0.tolist()

    def field(u):
        nonlocal prev
        r = model._sorted_basis(u)[1][family - 1]
        if sum(map(operator.mul, r, prev)) < 0.0:
            r = [-x for x in r]
        prev = r
        return np.array(r)
    return field


def _norm(x):
    """Euclidean norm of the vector x, in np.linalg.norm's arithmetic."""
    return np.sqrt(x.dot(x))


def _rms(x):
    """Root mean square of the vector x, as scipy's ``norm``."""
    return _norm(x) / x.size ** 0.5


def _dop853(field, y0, f0, t_bound):
    """y(t_bound) of y' = field(y), y(0) = y0, where f0 = field(y0).

    The initial step of Hairer, Norsett & Wanner (section II.4), then
    accepted steps of the 8(5,3) pair until t_bound is reached exactly;
    a step is accepted when the E5/E3 error norm is below 1, and every
    step size is rescaled by SAFETY * err^(-1/8) within [MIN_FACTOR,
    MAX_FACTOR], never growing right after a rejection.  A step below ten
    spacings of t raises DomainError."""
    direction = np.sign(t_bound)
    interval = abs(t_bound)
    # the initial step: a first-order and a second-order size estimate
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    # over a subnormal interval d2 overflows to inf, as in scipy, and the
    # first step is then the least one
    with np.errstate(over="ignore"):
        d2 = _rms((field(y0 + h0 * direction * f0) - f0) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, interval)

    t, y, f = 0.0, y0, f0
    K = np.empty((13, len(y0)))   # the 12 stages and the field at the end
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise DomainError("rarefaction integration failed: required "
                                  "step size is less than spacing between "
                                  "numbers")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, a in enumerate(_A, start=1):
                K[s] = field(y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = field(y_new)
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            err5, err3 = np.dot(K.T, _E5) / scale, np.dot(K.T, _E3) / scale
            # the squared norms as scipy forms them, rounded at the root
            err5_2, err3_2 = _norm(err5) ** 2, _norm(err3) ** 2
            err = (0.0 if err5_2 == 0 and err3_2 == 0 else
                   h_abs * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(y)))
            if err < 1:
                factor = (MAX_FACTOR if err == 0 else
                          min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def shock_curve(model, u0, family, sigma):
    """Point of the Hugoniot locus through u0 at strength sigma.

    A linear shock is the rarefaction point, moving at the characteristic
    speed.  The gas model gives the point in closed form up to a scalar root
    (``GasModel.hugoniot_point``).  Chartless models solve Rankine-Hugoniot
    together with the strength normalization by Newton, seeded at the
    eigenpair of u0: the state u0 + sigma r_family(u0) and the speed
    lambda_family(u0).  The locus is tangent to r_family at u0 (Lax 1957),
    so the seed state is O(sigma^2) from the root and no curve is
    integrated for it.
    Admissibility is not enforced here; sigma > 0 parametrizes the
    non-entropic branch.
    """
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    _check_radius(model, sigma)
    if sigma == 0.0:
        return CurvePoint(u0.copy(), float(model.lambdas(u0)[family - 1]), 0.0)
    if model.kind == "linear":
        eig = model.eigen(u0)
        state, speed = u0 + sigma * eig.r(family), eig.lam(family)
    elif model.kind == "gas":
        state, speed = model.hugoniot_point(u0, family, sigma)
    else:
        state, speed = _newton_shock(model, u0, model.flux(u0), family, sigma)
    model.check_domain(state)
    return CurvePoint(state, speed, float(sigma))


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
