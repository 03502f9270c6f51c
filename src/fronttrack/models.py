"""System definitions: flux maps with exact derivatives, eigenstructure, and
admissibility checks.

Every model fixes a family count n, the number p of negative-speed families,
and a working box in state space.  Characteristic speeds must keep their sign
pattern (families 1..p negative, p+1..n positive) on the admissible domain.

Genuine nonlinearity is read from the flux's exact second derivative:
``gnl(u)`` is grad(lambda_i) . r_i = l_i D^2 f(u)[r_i, r_i] with l_i r_i = 1
(Lax 1957).  Numeric eigenvectors are oriented so that this factor is
positive where it exceeds GNL_FLOOR, and otherwise so that their first
nonzero component is.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HyperbolicityError
from .newton import scalar_root

FD_WEDGE_STEP = 1e-5   # central-difference step for hypothesis sweeps
SPEED_FLOOR = 1e-6     # least admissible |characteristic speed|
DOMAIN_SLACK = 1e-9    # box widening of the admissible-domain test
GNL_FLOOR = 1e-7       # least |grad(lambda_i) . r_i| of a nonlinear family


def wedge(x, y):
    """Planar wedge product x ^ y = x0 y1 - x1 y0."""
    return float(x[0] * y[1] - x[1] * y[0])


@dataclass(frozen=True)
class EigenStructure:
    """Sorted eigenvalues with biorthonormal eigenvector bases.

    ``right[:, i-1]`` is r_i, ``left[i-1]`` is l_i, and left @ right = I.
    """

    lams: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def r(self, family):
        return self.right[:, family - 1]

    def l(self, family):
        return self.left[family - 1]

    def lam(self, family):
        return float(self.lams[family - 1])


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of admissible states."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=float))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=float))
        if np.any(self.lows >= self.highs):
            raise ValueError("box must have lows < highs")

    def contains(self, u, slack=0.0):
        """Whether the point u lies in the box widened by slack; NaN never
        does.  Compares Python floats: numpy reductions on a 2-vector cost
        more than the comparisons."""
        return all(lo - slack <= x <= hi + slack for x, lo, hi in zip(
            np.asarray(u, dtype=float).tolist(), self.lows.tolist(),
            self.highs.tolist(), strict=True))

    def grid(self, samples_per_axis):
        axes = [np.linspace(lo, hi, samples_per_axis)
                for lo, hi in zip(self.lows, self.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def shrunk(self, margin):
        span = self.highs - self.lows
        return Box(self.lows + margin * span, self.highs - margin * span)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural-hypothesis sweep over a sampling grid.

    ``margins`` stores the worst-case value of each inequality (positive
    means satisfied with that much room).  A report is shared by every
    caller that asks its model for the same sweep; do not modify it.
    """

    checks: dict
    margins: dict
    violations: list
    n_samples: int
    min_abs_speed: float
    max_abs_speed: float

    @property
    def admitted(self):
        return all(self.checks.values())

    def summary(self):
        lines = []
        for name in sorted(self.checks):
            status = "pass" if self.checks[name] else "FAIL"
            lines.append(f"{name:18s} {status}  margin={self.margins[name]: .3e}")
        return "\n".join(lines)


class FluxModel:
    """Base class for a strictly hyperbolic system u_t + f(u)_x = 0.

    A model is immutable after construction, so the facts that depend only
    on it (hypothesis reports, least speeds, c0) are memoised on it.
    """

    kind = "custom"
    has_chart = False

    def __init__(self, n, p, box, ref_state=None, predicate=None,
                 min_speed=0.0, curve_radius=0.5):
        self.n = int(n)
        self.p = int(p)
        if box.lows.shape != (self.n,):
            raise ValueError(f"box has {len(box.lows)} [low, high] pairs for "
                             f"{self.n} components")
        self.box = box
        self.predicate = predicate
        if not 0 <= self.p <= self.n:
            raise ValueError(f"p={self.p} must be a family count in 0..{self.n}")
        self.min_speed = float(min_speed)
        self.curve_radius = float(curve_radius)
        if ref_state is None:
            ref_state = 0.5 * (box.lows + box.highs)
        self.ref_state = np.asarray(ref_state, dtype=float)
        self._facts = {}

    def _fact(self, key, compute):
        """compute(), once per key for this model; an exception is raised
        again on the next call, since nothing is stored."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    # -- flux ------------------------------------------------------------

    def flux(self, u):
        raise NotImplementedError

    def jacobian(self, u):
        raise NotImplementedError

    def hessian(self, u):
        """H[k, i, j] = d^2 f_k / du_i du_j at u."""
        raise NotImplementedError

    # -- eigenstructure ----------------------------------------------------

    def lambdas(self, u):
        return self.eigen(u).lams

    def eigen(self, u):
        return self._numeric_eigen(np.asarray(u, dtype=float))

    def gnl(self, u):
        """grad(lambda_i) . r_i at u for every family i."""
        eig = self.eigen(u)
        return _gnl_factor(self.hessian(u), eig.right, eig.left)

    def _numeric_eigen(self, u):
        jac = self.jacobian(u)
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
        # the sign of the genuine-nonlinearity factor where it is visible,
        # else the sign of the first nonzero component; flipping column i of
        # right flips row i of its inverse, exactly
        g = _gnl_factor(self.hessian(u), right, left)
        first = right[np.argmax(np.abs(right) > 1e-12, axis=0), range(len(vals))]
        flip = np.where(np.abs(g) > GNL_FLOOR, g, first) < 0
        return EigenStructure(vals, np.where(flip, -right, right),
                              np.where(flip[:, None], -left, left))

    # -- Riemann coordinates ------------------------------------------------

    def to_riemann(self, u):
        raise NotImplementedError(f"{self.kind} model has no Riemann chart")

    def from_riemann(self, w):
        raise NotImplementedError(f"{self.kind} model has no Riemann chart")

    # -- domain ------------------------------------------------------------

    def structurally_valid(self, u):
        """Positivity-type constraints that make the flux evaluable."""
        return all(map(math.isfinite, np.asarray(u, dtype=float).tolist()))

    def in_domain(self, u):
        u = np.asarray(u, dtype=float)
        if not self.structurally_valid(u):
            return False
        if not self.box.contains(u, slack=DOMAIN_SLACK):
            return False
        if self.predicate is not None and not self.predicate(u):
            return False
        return True

    def check_domain(self, u):
        if not self.in_domain(u):
            raise DomainError(f"state {np.asarray(u)} outside admissible domain")

    def admitted_grid(self, samples_per_axis=32):
        pts = self.box.grid(samples_per_axis)
        return np.array([u for u in pts if self.in_domain(u)])

    def least_speed(self, samples_per_axis=33):
        """min |lambda_i| over the admitted box grid, computed once per
        samples_per_axis; raises DomainError when the grid admits no state."""
        def compute():
            grid = self.admitted_grid(samples_per_axis)
            if len(grid) == 0:
                raise DomainError("no admissible states in the working box")
            return min(float(np.min(np.abs(self.lambdas(u)))) for u in grid)
        return self._fact(("least_speed", samples_per_axis), compute)


class LinearModel(FluxModel):
    """Constant-coefficient system u_t + A u_x = 0."""

    kind = "linear"
    has_chart = True

    def __init__(self, A, box=None, ref_state=None, **kw):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        n = len(self.A)
        if box is None:
            box = Box(-10 * np.ones(n), 10 * np.ones(n))
        if ref_state is None:
            ref_state = np.zeros(n)
        self._eig = self._numeric_eigen(np.asarray(ref_state, dtype=float))
        kw.setdefault("curve_radius", 1e9)   # linear curves are globally exact
        super().__init__(n, int(np.sum(self._eig.lams < 0)), box,
                         ref_state=ref_state, **kw)

    def flux(self, u):
        return self.A @ np.asarray(u, dtype=float)

    def jacobian(self, u):
        return self.A

    def hessian(self, u):
        return np.zeros((len(self.A),) * 3)

    def lambdas(self, u):
        return self._eig.lams

    def eigen(self, u):
        return self._eig

    def least_speed(self, samples_per_axis=33):
        """min |lambda_i|: the speeds are the same at every state."""
        return float(np.min(np.abs(self._eig.lams)))

    def to_riemann(self, u):
        return self._eig.left @ (np.asarray(u, dtype=float) - self.ref_state)

    def from_riemann(self, w):
        return self.ref_state + self._eig.right @ np.asarray(w, dtype=float)


class GasModel(FluxModel):
    """Isentropic gas in (density, velocity) variables.

    Flux (rho u, u^2/2 + K^2 rho^(gamma-1)/(gamma-1)) with 1 < gamma < 3.
    Characteristic speeds u -/+ c with sound speed c = K rho^((gamma-1)/2);
    the admissible domain is the subsonic band |u| < c where family 1 moves
    left and family 2 moves right.
    """

    kind = "gas"
    has_chart = True

    def __init__(self, K=1.0, gamma=2.0, box=None, ref_state=None,
                 min_speed=0.0, **kw):
        if not (1.0 < gamma < 3.0):
            raise ValueError("gas model requires 1 < gamma < 3")
        if K <= 0:
            raise ValueError("gas model requires K > 0")
        self.K = float(K)
        self.gamma = float(gamma)
        self.theta = 0.5 * (gamma - 1.0)
        if box is None:
            box = Box([0.5, -0.2], [1.5, 0.2])
        if ref_state is None:
            ref_state = np.array([1.0, 0.0])
        super().__init__(2, 1, box, ref_state=ref_state, min_speed=min_speed, **kw)
        self._w_ref = self._w_raw(self.ref_state)

    def sound_speed(self, rho):
        return self.K * rho ** self.theta

    def flux(self, u):
        rho, v = u
        return np.array([rho * v,
                         0.5 * v * v + self.K ** 2 * rho ** (self.gamma - 1.0)
                         / (self.gamma - 1.0)])

    def jacobian(self, u):
        rho, v = u
        return np.array([[v, rho],
                         [self.K ** 2 * rho ** (self.gamma - 2.0), v]])

    def lambdas(self, u):
        rho, v = u
        c = self.sound_speed(rho)
        return np.array([v - c, v + c])

    def eigen(self, u):
        rho, v = u
        c = self.sound_speed(rho)
        # r_i = du/dw_i in the Riemann chart; this keeps d(lambda_i)/dw_i
        # constant and positive, equal to (gamma + 1)/4.
        d = rho ** (1.0 - self.theta) / (2.0 * self.K)
        right = np.array([[-d, d], [0.5, 0.5]])
        e = self.K * rho ** (self.theta - 1.0)
        left = np.array([[-e, 1.0], [e, 1.0]])
        return EigenStructure(np.array([v - c, v + c]), right, left)

    def gnl(self, u):
        return np.full(2, 0.25 * (self.gamma + 1.0))

    def _w_raw(self, u):
        rho, v = u
        s = (self.K / self.theta) * rho ** self.theta
        return np.array([v - s, v + s])

    def to_riemann(self, u):
        return self._w_raw(np.asarray(u, dtype=float)) - self._w_ref

    def from_riemann(self, w):
        raw = np.asarray(w, dtype=float) + self._w_ref
        spread = 0.5 * (raw[1] - raw[0])
        if spread <= 0.0:
            raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
        rho = (self.theta * spread / self.K) ** (1.0 / self.theta)
        v = 0.5 * (raw[0] + raw[1])
        return np.array([rho, v])

    def chart_gradient(self, u, family):
        rho = u[0]
        e = self.K * rho ** (self.theta - 1.0)
        return np.array([-e, 1.0]) if family == 1 else np.array([e, 1.0])

    # -- closed-form wave curves -------------------------------------------
    #
    # With h(rho) = (K/theta) rho^theta (so w1 = v - h, w2 = v + h) and
    # P(rho) = K^2 rho^(gamma-1)/(gamma-1), the Hugoniot locus through
    # (rho0, v0) is |v - v0| = phi(rho; rho0) with
    # phi = sqrt(2 (rho - rho0)(P(rho) - P(rho0)) / (rho + rho0)).  Both
    # curves are written in the density offset x = rho - rho0, with every
    # difference formed from log1p/expm1, so nothing cancels as x -> 0.

    def _wave_terms(self, rho0, x):
        """Chart and Hugoniot terms at density rho0 + x, relative to rho0.

        Returns (dh, dh', q, (x q)') with dh = h(rho0 + x) - h(rho0) and
        q = phi / |x|, so that x q is the signed Hugoniot velocity jump;
        primes are derivatives in x.  Smooth through x = 0.
        """
        g1 = self.gamma - 1.0
        th = self.theta
        lg = math.log1p(x / rho0)
        rho = rho0 + x
        h0 = self.K / th * rho0 ** th
        p0 = self.K * self.K * rho0 ** g1 / g1
        # (P(rho) - P(rho0)) / x, whose limit at x = 0 is P'(rho0)
        secant = p0 * math.expm1(g1 * lg) / x if x else g1 * p0 / rho0
        total = rho + rho0
        q = math.sqrt(2.0 * secant / total)
        dp = g1 * p0 * math.exp(g1 * lg) / rho
        return (h0 * math.expm1(th * lg), th * h0 * math.exp(th * lg) / rho,
                q, (2.0 * rho0 * secant + total * dp) / (total * total * q))

    def hugoniot_point(self, u0, family, sigma):
        """State on the Hugoniot locus of ``family`` through u0 where w_family
        has moved by sigma (either sign), and the shock speed.

        Along the locus v - v0 = e x q(x) with e = -1 for family 1 and +1 for
        family 2, so the strength equation reads x q + dh = e sigma, which is
        increasing in x.  It is solved from the chart rarefaction point,
        which has third-order contact with the locus.  The mass jump
        condition gives the speed v0 + rho (v - v0) / x = v0 + e rho q.
        """
        rho0, v0 = float(u0[0]), float(u0[1])
        e = -1.0 if family == 1 else 1.0
        tau = e * float(sigma)
        h0 = self.K / self.theta * rho0 ** self.theta
        if 0.5 * tau <= -h0:
            raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
        seed = rho0 * math.expm1(math.log1p(0.5 * tau / h0) / self.theta)

        def strength(x):
            dh, ddh, q, dxq = self._wave_terms(rho0, x)
            return x * q + dh - tau, dxq + ddh

        lo, hi = (0.0, math.inf) if tau > 0.0 else (-rho0, 0.0)
        x = scalar_root(strength, seed, lo, hi,
                        context=f"(gas shock family {family})")
        q = self._wave_terms(rho0, x)[2]
        rho = rho0 + x
        return np.array([rho, v0 + e * x * q]), v0 + e * rho * q

    def riemann_strengths(self, ul, ur):
        """Strengths (sigma_1, sigma_2) of the Riemann solution from ul to ur.

        The middle density is the root of vL(rho) - vR(rho), where
        vL = v_l - f(rho; rho_l) and vR = v_r + f(rho; rho_r), and f is the
        chart jump dh for rho below the base density and the Hugoniot jump
        phi above it.  The root is seeded at the two-rarefaction state
        (w1 of ul, w2 of ur).
        """
        rho_l, v_l = float(ul[0]), float(ul[1])
        rho_r, v_r = float(ur[0]), float(ur[1])
        th = self.theta
        h_mid = 0.5 * (v_r - v_l) + 0.5 * self.K / th * (rho_l ** th + rho_r ** th)
        if h_mid <= 0.0:
            raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
        seed = (th * h_mid / self.K) ** (1.0 / th)

        def jump(rho0, x):
            """f(rho0 + x; rho0), its slope, and dh."""
            dh, ddh, q, dxq = self._wave_terms(rho0, x)
            return (dh, ddh, dh) if x <= 0.0 else (x * q, dxq, dh)

        def gap(rho):
            f_l, df_l, _ = jump(rho_l, rho - rho_l)
            f_r, df_r, _ = jump(rho_r, rho - rho_r)
            return f_l + f_r + v_r - v_l, df_l + df_r

        rho = scalar_root(gap, seed, 0.0, math.inf, context="(gas riemann)")
        f_l, _, dh_l = jump(rho_l, rho - rho_l)
        f_r, _, dh_r = jump(rho_r, rho - rho_r)
        v_m = 0.5 * (v_l - f_l + v_r + f_r)
        return np.array([v_m - v_l - dh_l, v_r - v_m - dh_r])

    def structurally_valid(self, u):
        rho, v = np.asarray(u, dtype=float).tolist()
        if not (math.isfinite(rho) and math.isfinite(v)):
            return False
        if rho <= 0.0:
            return False
        # keep the declared sign pattern lambda_1 < 0 < lambda_2
        c = self.sound_speed(rho)
        return abs(v) < c - self.min_speed


class TableModel(FluxModel):
    """Flux given per component as a table of monomial terms.

    ``terms[k]`` is a list of (coefficient, exponents) pairs: a number and a
    length-n tuple of integers, negatives allowed.  The table is compiled
    once into the coefficients and exponents of the flux and of its first
    and second derivatives, which one evaluator sums; the eigenstructure is
    the generic numeric one.
    """

    kind = "custom-table"

    def __init__(self, terms, p, box, **kw):
        n = len(terms)
        rows = [(k, c, ex) for k, comp in enumerate(terms) for c, ex in comp]
        for _, c, ex in rows:
            if len(ex) != n:
                raise ValueError("exponent tuple length must equal n")
            if isinstance(c, bool) or not isinstance(c, numbers.Real):
                raise TypeError(f"term coefficient {c!r} is not a number")
            if any(isinstance(e, bool) or not isinstance(e, numbers.Integral)
                   for e in ex):
                raise TypeError(f"term exponents {ex!r} are not integers")
        super().__init__(n, p, box, **kw)
        index = np.array([k for k, _, _ in rows], dtype=int)
        coef = np.array([c for _, c, _ in rows], dtype=float)
        exps = np.array([ex for _, _, ex in rows], dtype=int).reshape(-1, n)
        # order d + 1 differentiates each order-d term in every direction j;
        # a vanishing term gets exponents 0, so 0 ** -1 never enters a sum
        self._orders = [(index, coef, exps)]
        for _ in range(2):
            index = (index[:, None] * n + np.arange(n)).ravel()
            coef = (coef[:, None] * exps).ravel()
            exps = (exps[:, None, :] - np.eye(n, dtype=int)).reshape(-1, n)
            exps[coef == 0.0] = 0
            self._orders.append((index, coef, exps))

    def _derivative(self, u, order):
        """The order-th derivative of the flux at u, shape (n,) * (order + 1)."""
        index, coef, exps = self._orders[order]
        values = coef * np.prod(np.asarray(u, dtype=float) ** exps, axis=1)
        return np.bincount(index, weights=values, minlength=self.n ** (
            order + 1)).reshape((self.n,) * (order + 1))

    def flux(self, u):
        return self._derivative(u, 0)

    def jacobian(self, u):
        return self._derivative(u, 1)

    def hessian(self, u):
        return self._derivative(u, 2)


def _gnl_factor(hessian, right, left):
    """l_i D^2 f[r_i, r_i] for each column r_i of right and row l_i of left."""
    return np.einsum("ik,kab,ai,bi->i", left, hessian, right, right)


def _directional(fn, u, direction, h):
    return (fn(u + h * direction) - fn(u - h * direction)) / (2 * h)


def verify_hypotheses(model, samples_per_axis=32, respect_predicate=False):
    """Sweep the working box and measure the structural hypotheses.

    Checks the speed sign pattern, the uniform speed floor, genuine
    nonlinearity of every family, and (for 2x2 systems) the clockwise-turning
    wedge inequalities of the eigenvector fields.  Violations are collected,
    never raised.

    By default the sweep probes the whole box (so a box straying past a
    sonic line shows up as a sign violation); with ``respect_predicate`` it
    audits only the model's declared admissible domain, which is the
    admission check run before control experiments.

    The report is computed once per model, keyed by (samples_per_axis,
    respect_predicate), and shared by later calls: models are immutable.  A
    sweep that raises stores nothing.  A report that fails a check is kept,
    and each caller that gates on it refuses the model again.
    """
    return model._fact(
        ("hypotheses", samples_per_axis, bool(respect_predicate)),
        lambda: _sweep_hypotheses(model, samples_per_axis, respect_predicate))


def _sweep_hypotheses(model, samples_per_axis, respect_predicate):
    if respect_predicate:
        pts = model.admitted_grid(samples_per_axis)
    else:
        pts = [u for u in model.box.grid(samples_per_axis)
               if _loose_valid(model, u)]
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

        for i, g in enumerate(model.gnl(u).tolist(), start=1):
            gnl_margin[i - 1] = min(gnl_margin[i - 1], g)
            if g <= 0:
                violations.append((f"gnl_{i}", u))

        if model.n == 2:
            r1, r2 = eig.r(1), eig.r(2)
            w12 = wedge(r1, r2)
            wedge_rr = max(wedge_rr, w12)
            if w12 >= 0:
                violations.append(("wedge_r1_r2", u))
            for i, r in ((1, r1), (2, r2)):
                drr = _directional(lambda v, i=i: model.eigen(v).r(i), u, r,
                                   FD_WEDGE_STEP)
                wb = wedge(r, drr)
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

    return HypothesisReport(checks, margins, violations, n_used,
                            floor_margin, max_speed)


def _loose_valid(model, u):
    """Accept states the sweep should still probe (e.g. supersonic gas
    states inside the box, which must show up as sign violations)."""
    if not np.all(np.isfinite(u)):
        return False
    if isinstance(model, GasModel):
        return u[0] > 0
    return True


def crossing_time(model, interval, samples_per_axis=33):
    """Max time for a wave of any family to cross the interval.

    Computed as (b - a) / model.least_speed(samples_per_axis), the least
    |lambda_i| over the admitted box grid.  The least speed, not tau, is
    cached on the model, keyed by samples_per_axis, because tau depends on
    the interval; an empty grid stores nothing.  Raises DomainError, on
    every call, when that speed is below the floor.
    """
    a, b = interval
    min_speed = model.least_speed(samples_per_axis)
    if min_speed < SPEED_FLOOR:
        raise DomainError(
            f"characteristic speed {min_speed:.3e} below floor {SPEED_FLOOR:.1e}")
    return (b - a) / min_speed
