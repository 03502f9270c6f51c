"""Reference formulas the tests compare the package against."""

import numpy as np

from fronttrack import riemann
from fronttrack.curves import _gnl, lax_curve, rarefaction_curve
from fronttrack.errors import (
    SOLVER_ERRORS, ConvergenceError, DomainError, HyperbolicityError,
    RadiusError,
)
from fronttrack.models import (
    DOMAIN_SLACK, GNL_FLOOR, SPEED_FLOOR, Box, EigenStructure,
    HypothesisReport, LinearModel, TableModel, _curvature, wedge,
)
from fronttrack.newton import MAX_ITER, RES_TOL, STEP_TOL, newton_solve
from fronttrack.riemann import (
    DELTA_RIEMANN, RESIDUAL_TOL, _checked_jump, _coords, _solution_from_sigmas,
)

# the gas at K = 1, gamma = 2 written as a monomial table: (rho v, v^2/2 + rho)
GAS_TWIN = TableModel([[(1.0, (1, 1))], [(0.5, (0, 2)), (1.0, (1, 0))]], 1,
                      Box([0.5, -0.6], [1.5, 0.6]))
# three coupled families, two of them negative
LINEAR3 = LinearModel([[-2.0, 0.2, 0.0], [0.1, -1.0, 0.1], [0.0, 0.2, 1.5]])


def chart_gradient(gas, u, family):
    """Gradient of the gas model's Riemann coordinate w_family at u:
    (-/+ K rho^(theta - 1), 1) for w = v -/+ (K / theta) rho^theta."""
    e = gas.K * u[0] ** (gas.theta - 1.0)
    return np.array([-e, 1.0]) if family == 1 else np.array([e, 1.0])


def reference_numeric_eigen(model, u):
    """The numeric eigenstructure as whole-array numpy operations: every
    test, the normalization and the orientation rule on arrays."""
    jac = model.jacobian(u)
    if not np.isfinite(jac).all():
        raise DomainError(f"flux Jacobian is not finite at {u}")
    vals, vecs = np.linalg.eig(jac)
    if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals.real))):
        raise HyperbolicityError(f"complex characteristic speeds at {u}")
    vals = vals.real
    order = np.argsort(vals)
    vals = vals[order]
    gaps = np.diff(vals)
    if len(gaps) and np.min(gaps) < 1e-10 * max(1.0, np.max(np.abs(vals))):
        raise HyperbolicityError(f"coincident characteristic speeds at {u}")
    right = np.real(vecs[:, order])
    right = right / np.linalg.norm(right, axis=0, keepdims=True)
    left = np.linalg.inv(right)
    g = _curvature(model.hessian(u), right, left).diagonal()
    first = right[np.argmax(np.abs(right) > 1e-12, axis=0), range(len(vals))]
    flip = np.where(np.abs(g) > GNL_FLOOR, g, first) < 0
    return EigenStructure(vals, np.where(flip, -right, right),
                          np.where(flip[:, None], -left, left))


FD_STEP = 1e-5   # central-difference step of the eigenvector-field probes


def reference_wedge_bend(model, u, family):
    """wedge(r_i, D r_i[r_i]) at u, the derivative of the eigenvector field
    r_i = model.eigen(.).r(i) along itself by a central difference."""
    u = np.asarray(u, dtype=float)
    r = model.eigen(u).r(family)
    drr = (model.eigen(u + FD_STEP * r).r(family)
           - model.eigen(u - FD_STEP * r).r(family)) / (2 * FD_STEP)
    return wedge(r, drr)


def reference_deviation_coefficient(model, u0, family):
    """The shock curve's cubic deviation coefficient from a central
    difference of the lambda-normalized field r_i / grad(lambda_i) . r_i."""
    u0 = np.asarray(u0, dtype=float)
    other = 2 if family == 1 else 1
    eig = model.eigen(u0)

    def field(u):
        return model.eigen(u).r(family) / _gnl(model, u, family)

    rt = field(u0)
    drr = (field(u0 + FD_STEP * rt) - field(u0 - FD_STEP * rt)) / (2 * FD_STEP)
    return wedge(drr, rt) / (2.0 * (eig.lam(other) - eig.lam(family))
                             * wedge(rt, eig.r(other)))


NEWTON_FD_STEP = 1e-7   # forward-difference step of the reference Newton


class ProbeDomainError(DomainError):
    """A forward-difference probe left the domain: near the box edge the
    reference Newton fails where a Newton that makes no probe need not."""


def fd_jacobian(fn, x, f0):
    """Forward-difference Jacobian of fn at x, where fn(x) = f0."""
    m, n = len(f0), len(x)
    J = np.empty((m, n))
    for k in range(n):
        xk = x.copy()
        xk[k] += NEWTON_FD_STEP
        try:
            J[:, k] = (fn(xk) - f0) / NEWTON_FD_STEP
        except DomainError as exc:
            raise ProbeDomainError(str(exc)) from exc
    return J


def reference_newton_solve(fn, x0, jac=None, context=""):
    """Damped Newton that evaluates the Jacobian afresh at every iterate:
    the function ``jac`` when given, a forward difference of fn otherwise.
    The same line search and tolerances as the package's Broyden Newton."""
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fn(x), dtype=float)
    best = float(np.max(np.abs(f)))
    for _ in range(MAX_ITER):
        if best < RES_TOL:
            return x
        J = jac(x) if jac is not None else fd_jacobian(fn, x, f)
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


def _memo_wave_points(model, ul, sigmas, memo):
    """Lax curve points of families 1, 2, ... composed from ul, each kept in
    ``memo`` under the bytes of its base state, family and strength (bytes
    keep -0.0 apart from 0.0), so no point is computed twice in one solve.
    The curve is looked up on the riemann module, where tests count it."""
    u = np.asarray(ul, dtype=float)
    points = []
    for i, s in enumerate(np.asarray(sigmas, dtype=float), start=1):
        key = (u.tobytes(), i, s.tobytes())
        cp = memo.get(key)
        if cp is None:
            cp = memo[key] = riemann.lax_curve(model, u, i, float(s))
        points.append(cp)
        u = cp.state
    return points


def reference_fd_solve_riemann(model, ul, ur):
    """The chartless Riemann solve by Newton on a forward-difference
    Jacobian from the coordinate jump, one curve point per solve by a memo,
    then recomposed and checked against RESIDUAL_TOL."""
    ul, ur = np.asarray(ul, dtype=float), np.asarray(ur, dtype=float)
    dw = _checked_jump(model, ul, ur, "data jump", "solvable")
    memo = {}

    def fn(sig):
        return _memo_wave_points(model, ul, sig, memo)[-1].state - ur

    sig = reference_newton_solve(fn, dw, context="(riemann)")
    sol = _solution_from_sigmas(model, ul, sig, ur=ur,
                                points=_memo_wave_points(model, ul, sig, memo))
    if sol.residual > RESIDUAL_TOL:
        raise ConvergenceError(f"riemann residual {sol.residual:.3e} above tolerance")
    return sol


def reference_newton_shock(model, u0, f0, family, sigma):
    """Chartless Hugoniot point by Newton on Rankine-Hugoniot plus the
    strength equation, seeded at the integrated rarefaction point and the
    mean of its end speeds."""
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

    x = reference_newton_solve(fn, x0, jac, f"(shock curve family {family})")
    return x[:n], float(x[n])


def _compose_afresh(model, u, sigmas, first):
    """The state the Lax curves of families first, first + 1, ... reach
    from u, every point computed anew."""
    u = np.asarray(u, dtype=float)
    for i, s in enumerate(sigmas, start=first):
        u = lax_curve(model, u, i, float(s)).state
    return u


def reference_split_boundary_pair(model, v, v_prime, fd=False):
    """(state, sigmas, residual) of the boundary split composing every curve
    afresh: by the package's Newton from the same seed, the right
    eigenvectors at zero strength, or with ``fd`` by the forward-difference
    Newton."""
    v, vp, p = np.asarray(v, dtype=float), np.asarray(v_prime, dtype=float), model.p
    dw = _coords(model, vp) - _coords(model, v)
    sig0 = np.concatenate([dw[:p], -dw[p:]])

    def fn(sig):
        return (_compose_afresh(model, vp, sig[p:], p + 1)
                - _compose_afresh(model, v, sig[:p], 1))

    if fd:
        sig = reference_newton_solve(fn, sig0)
    else:
        sig = newton_solve(fn, sig0, np.hstack([-model.eigen(v).right[:, :p],
                                                model.eigen(vp).right[:, p:]]))
    return (_compose_afresh(model, v, sig[:p], 1), sig,
            float(np.max(np.abs(fn(sig)))))


def reference_split_boundary_pair_reverse(model, w, u_star, fd=False):
    """(state, sigmas, residual) of the reverse split composing every curve
    afresh: by the package's Newton from the same seed, the identity and the
    right eigenvectors at zero strength, or with ``fd`` by the
    forward-difference Newton."""
    w, us = np.asarray(w, dtype=float), np.asarray(u_star, dtype=float)
    p, n = model.p, model.n
    dw = _coords(model, w) - _coords(model, us)

    def fn(x):
        v3, sig = x[:n], x[n:]
        return np.concatenate([_compose_afresh(model, v3, sig[p:], p + 1) - w,
                               _compose_afresh(model, v3, sig[:p], 1) - us])

    x0 = np.concatenate([us, np.zeros(p), dw[p:]])
    if fd:
        x = reference_newton_solve(fn, x0)
    else:
        eye, right = np.eye(n), model.eigen(us).right
        x = newton_solve(fn, x0, np.block([
            [eye, np.zeros((n, p)), right[:, p:]],
            [eye, right[:, :p], np.zeros((n, n - p))]]))
    return x[:n], x[n:], float(np.max(np.abs(fn(x))))


def split_recomposition_gap(model, data, split, reverse=False):
    """Largest gap between the ends of a boundary split and its Lax curves
    composed with its strengths: from v and v' to the state for the split
    of (v, v'), from the state to w and u* for the reverse split of
    (w, u*)."""
    p, sig, state = model.p, split.sigmas, split.state
    if reverse:
        w, u_star = data
        legs = [(state, sig[p:], p + 1, w), (state, sig[:p], 1, u_star)]
    else:
        v, vp = data
        legs = [(v, sig[:p], 1, state), (vp, sig[p:], p + 1, state)]
    return max(float(np.max(np.abs(_compose_afresh(model, u, s, first) - end)))
               for u, s, first, end in legs)


def reference_sweep_hypotheses(model, samples_per_axis):
    """The structural-hypothesis sweep with one running accumulator per
    check, updated and flagged point by point: violations in grid order,
    each margin the first of its equal worst values."""
    pts = model.admitted_grid(samples_per_axis)
    checks, margins, violations = {}, {}, []

    sign_margin = np.inf
    floor_margin = np.inf
    gnl_margin = [np.inf] * model.n
    wedge_rr = -np.inf
    wedge_bend = [-np.inf, -np.inf]
    max_speed = 0.0
    n_used = 0

    for u in pts:
        try:
            eig = model.eigen(u)
        except HyperbolicityError:
            violations.append(("hyperbolicity", u))
            continue
        n_used += 1
        lams = eig.lams
        max_speed = max(max_speed, float(np.max(np.abs(lams))))

        m_sign = min(float(np.min(-lams[:model.p])) if model.p else np.inf,
                     float(np.min(lams[model.p:])) if model.p < model.n else np.inf)
        if m_sign < sign_margin:
            sign_margin = m_sign
        if m_sign <= 0:
            violations.append(("speed_signs", u))

        m_floor = float(np.min(np.abs(lams)))
        floor_margin = min(floor_margin, m_floor)
        if m_floor < SPEED_FLOOR:
            violations.append(("speed_floor", u))

        curv = _curvature(model.hessian(u), eig.right, eig.left)
        for i, g in enumerate(curv.diagonal().tolist(), start=1):
            gnl_margin[i - 1] = min(gnl_margin[i - 1], g)
            if g <= 0:
                violations.append((f"gnl_{i}", u))

        if model.n == 2:
            w12 = wedge(eig.r(1), eig.r(2))
            wedge_rr = max(wedge_rr, w12)
            if w12 >= 0:
                violations.append(("wedge_r1_r2", u))
            for i, k, w in ((1, 2, w12), (2, 1, -w12)):
                wb = float(curv[k - 1, i - 1]) / (eig.lam(i) - eig.lam(k)) * w
                wedge_bend[i - 1] = max(wedge_bend[i - 1], wb)
                if wb >= 0:
                    violations.append((f"wedge_bend_{i}", u))

    checks["speed_signs"] = sign_margin > 0
    margins["speed_signs"] = sign_margin
    checks["speed_floor"] = floor_margin >= SPEED_FLOOR
    margins["speed_floor"] = floor_margin
    checks["speed_band"] = np.isfinite(max_speed)
    margins["speed_band"] = max_speed
    for i in range(1, model.n + 1):
        checks[f"gnl_{i}"] = gnl_margin[i - 1] > 0
        margins[f"gnl_{i}"] = gnl_margin[i - 1]
    if model.n == 2:
        checks["wedge_r1_r2"] = wedge_rr < 0
        margins["wedge_r1_r2"] = -wedge_rr
        for i in (1, 2):
            checks[f"wedge_bend_{i}"] = wedge_bend[i - 1] < 0
            margins[f"wedge_bend_{i}"] = -wedge_bend[i - 1]

    return HypothesisReport(checks, margins, violations, n_used)


def wave_mass(snap, family, sign=None):
    """Mass of one family's atomic wave measure in a snapshot, each front
    an atom of its signed strength; sign +1 or -1 keeps only the positive
    or the negative atoms."""
    s = snap.sigmas[snap.families == family]
    if sign is not None:
        s = s[np.sign(s) == sign]
    return float(np.sum(np.abs(s)))


# -- the domain test, the gas state methods and the jump check on arrays -------
# Each computes on numpy arrays and numpy float64 scalars, where the package
# unpacks a state into Python floats once; the arithmetic and the libm pow are
# the same, so the results agree bit for bit.


def reference_box_contains(box, u):
    """Box.contains with the widened bounds formed on every call from the
    box's arrays."""
    return all(lo - DOMAIN_SLACK <= x <= hi + DOMAIN_SLACK
               for x, lo, hi in zip(np.asarray(u, dtype=float).tolist(),
                                    box.lows.tolist(), box.highs.tolist(),
                                    strict=True))


def reference_gas_flux(gas, u):
    rho, v = np.asarray(u, dtype=float)
    return np.array([rho * v,
                     0.5 * v * v + gas.K ** 2 * rho ** (gas.gamma - 1.0)
                     / (gas.gamma - 1.0)])


def reference_gas_lambdas(gas, u):
    rho, v = np.asarray(u, dtype=float)
    c = gas.K * rho ** gas.theta
    return np.array([v - c, v + c])


def _reference_w_raw(gas, u):
    rho, v = np.asarray(u, dtype=float)
    s = (gas.K / gas.theta) * rho ** gas.theta
    return np.array([v - s, v + s])


def reference_gas_to_riemann(gas, u):
    return _reference_w_raw(gas, u) - _reference_w_raw(gas, gas.ref_state)


def reference_gas_from_riemann(gas, w):
    raw = np.asarray(w, dtype=float) + _reference_w_raw(gas, gas.ref_state)
    spread = 0.5 * (raw[1] - raw[0])
    if spread <= 0.0:
        raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
    rho = (gas.theta * spread / gas.K) ** (1.0 / gas.theta)
    v = 0.5 * (raw[0] + raw[1])
    return np.array([rho, v])


def reference_checked_jump(model, u_from, u_to, label, kind):
    """_checked_jump with the jump reduced by numpy."""
    model.check_domain(u_from)
    model.check_domain(u_to)
    dw = _coords(model, u_to) - _coords(model, u_from)
    jump = float(np.max(np.abs(dw)))
    if jump > DELTA_RIEMANN:
        raise RadiusError(
            f"{label} {jump:.3g} exceeds {kind} radius {DELTA_RIEMANN}")
    return dw
