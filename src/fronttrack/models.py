"""System definitions: flux maps with exact derivatives, eigenstructure, and
admissibility checks.

Every model fixes a family count n, the number p of negative-speed families,
and a working box in state space.  Characteristic speeds must keep their sign
pattern (families 1..p negative, p+1..n positive) on the admissible domain.

The eigen-geometry is read from the flux's exact second derivative, through
the curvature matrix C[k, i] = l_k D^2 f(u)[r_i, r_i] with l_k r_i = delta_ki
(Lax 1957).  Its diagonal ``gnl(u)`` is grad(lambda_i) . r_i; numeric
eigenvectors are oriented so that this factor is positive where it exceeds
GNL_FLOOR, and otherwise so that their first nonzero component is.  A
custom table, and a linear model once at construction, read speeds and unit
eigenvectors from the Jacobian: in closed form when it is 2x2, from
np.linalg.eig otherwise.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HyperbolicityError
from .newton import RES_TOL, scalar_root

SPEED_FLOOR = 1e-6     # least admissible |characteristic speed|
SPEED_SAMPLES = 33     # grid points per axis of the least-speed sweep
DOMAIN_SLACK = 1e-9    # state: box widening of the admissible-domain test
GNL_FLOOR = 1e-7       # speed/strength: least |grad(lambda_i) . r_i| of a GNL family
EIG_RESIDUAL_TOL = 1e-10  # bound of |J r - lambda r| over max |J_ij|


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
    # (lo - DOMAIN_SLACK, hi + DOMAIN_SLACK) per component, as floats
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=float))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=float))
        if np.any(self.lows >= self.highs):
            raise ValueError("box must have lows < highs")
        object.__setattr__(self, "_bounds", tuple(zip(
            (self.lows - DOMAIN_SLACK).tolist(),
            (self.highs + DOMAIN_SLACK).tolist())))

    def contains(self, u):
        """Whether the point u, a list of floats, lies in the box widened by
        DOMAIN_SLACK; NaN never does, and a u of the wrong length raises
        ValueError.  Compares Python floats: numpy reductions on a 2-vector
        cost more than the comparisons."""
        return all(lo <= x <= hi
                   for x, (lo, hi) in zip(u, self._bounds, strict=True))

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
    means satisfied with that much room; ``speed_band`` is the largest
    |speed|).  ``violations`` holds (check, state) pairs check by check, in
    grid order.  A report is shared by every caller that asks its model for
    the same sweep; do not modify it.
    """

    checks: dict
    margins: dict
    violations: list
    n_samples: int

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
    on it (hypothesis reports, least speeds, c0) are memoised on it.  Its
    wave curves run to |sigma| = curve_radius, a constant of its kind.
    """

    kind = "custom"
    has_chart = False
    curve_radius = 0.5

    def __init__(self, n, p, box, ref_state=None):
        self.n = int(n)
        self.p = int(p)
        if box.lows.shape != (self.n,):
            raise ValueError(f"box has {len(box.lows)} [low, high] pairs for "
                             f"{self.n} components")
        self.box = box
        if not 0 <= self.p <= self.n:
            raise ValueError(f"p={self.p} must be a family count in 0..{self.n}")
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
        return np.array(self._sorted_basis(np.asarray(u, dtype=float))[0])

    def eigen(self, u):
        return self._numeric_eigen(np.asarray(u, dtype=float))

    def gnl(self, u):
        """grad(lambda_i) . r_i at u for every family i."""
        eig = self.eigen(u)
        return _curvature(self.hessian(u), eig.right, eig.left).diagonal()

    def _flat_jacobian(self, u):
        """The Jacobian at u as one list of floats, row by row."""
        return np.ravel(self.jacobian(u)).tolist()

    def _sorted_basis(self, u):
        """Ascending speeds and unit right eigenvectors of the Jacobian, as
        a list of floats and a list of columns, each a list of floats: in
        closed form for a 2x2 one (``_basis_2x2``), else from
        np.linalg.eig, in the signs eig returns, each column's residual
        checked.  Every call checks that the Jacobian is finite and that
        its speeds are real and distinct.  The size is read from the
        Jacobian, not from ``self.n``, which LinearModel sets after its
        first call.  The 2x2 path runs on Python floats: numpy calls on
        arrays of a few entries cost more than their arithmetic."""
        entries = self._flat_jacobian(u)
        if not all(map(math.isfinite, entries)):
            raise DomainError(f"flux Jacobian is not finite at {u}")
        if len(entries) == 4:
            return _basis_2x2(*entries, u)
        n = math.isqrt(len(entries))
        jac = np.reshape(entries, (n, n))
        vals, vecs = np.linalg.eig(jac)
        # eig returns real arrays when every imaginary part is zero, and
        # then no speed can be complex
        imag = 0.0
        if vals.dtype.kind == "c":
            imag = float(np.max(np.abs(vals.imag)))
            vals, vecs = vals.real, vecs.real
        order = np.argsort(vals)
        vals = vals[order]
        _check_speeds(vals.tolist(), imag, u)
        right = vecs[:, order]
        # np.linalg.norm's arithmetic, without its dispatch
        right /= np.sqrt(np.add.reduce(right * right, axis=0, keepdims=True))
        # a column that LAPACK's balancing got wrong (entries spanning hundreds
        # of orders of magnitude) becomes a null vector of J - lambda I
        misses = (np.max(np.abs(jac @ right - right * vals), axis=0)
                  > EIG_RESIDUAL_TOL * max(map(abs, entries)))
        for i in np.flatnonzero(misses).tolist():
            right[:, i] = np.linalg.svd(jac - vals[i] * np.eye(n))[2][-1]
        return vals.tolist(), right.T.tolist()

    def _numeric_eigen(self, u):
        """Eigenstructure from ``_sorted_basis``, oriented by the Hessian.

        Each r_i is signed so that grad(lambda_i) . r_i is positive where it
        exceeds GNL_FLOOR, else so that its first nonzero component is; the
        left basis is the inverse of the right one.  Only the orientation
        needs the Hessian, so ``lambdas`` and the chartless rarefaction's
        field, which orients each column against the previous one, read
        ``_sorted_basis`` alone."""
        speeds, columns = self._sorted_basis(u)
        right = np.array(list(zip(*columns)))
        left = np.linalg.inv(right)
        # flipping column i of right flips row i of its inverse, exactly
        g = _curvature(self.hessian(u), right, left).diagonal()
        flip = [(gi if abs(gi) > GNL_FLOOR
                 else next((x for x in col if abs(x) > 1e-12), col[0])) < 0
                for gi, col in zip(g.tolist(), columns)]
        if any(flip):
            signs = np.array([-1.0 if f else 1.0 for f in flip])
            right, left = right * signs, left * signs[:, None]
        return EigenStructure(np.array(speeds), right, left)

    # -- Riemann coordinates ------------------------------------------------

    def to_riemann(self, u):
        raise NotImplementedError(f"{self.kind} model has no Riemann chart")

    def from_riemann(self, w):
        raise NotImplementedError(f"{self.kind} model has no Riemann chart")

    # -- domain ------------------------------------------------------------

    def structurally_valid(self, u):
        """Positivity-type constraints that make the flux evaluable, on the
        state u as a list of floats."""
        return all(map(math.isfinite, u))

    def in_domain(self, u):
        """Whether the state u is structurally valid and in the box; u is
        converted to a list of floats once, for both tests."""
        u = np.asarray(u, dtype=float).tolist()
        return self.structurally_valid(u) and self.box.contains(u)

    def check_domain(self, u):
        if not self.in_domain(u):
            raise DomainError(f"state {np.asarray(u)} outside admissible domain")

    def admitted_grid(self, samples_per_axis):
        pts = self.box.grid(samples_per_axis)
        return np.array([u for u in pts if self.in_domain(u)])

    def least_speed(self):
        """min |lambda_i| over the admitted box grid of SPEED_SAMPLES per
        axis, computed once; raises DomainError when the grid admits no
        state."""
        def compute():
            grid = self.admitted_grid(SPEED_SAMPLES)
            if len(grid) == 0:
                raise DomainError("no admissible states in the working box")
            return float(np.min(np.abs([self.lambdas(u) for u in grid])))
        return self._fact(("least_speed",), compute)


class LinearModel(FluxModel):
    """Constant-coefficient system u_t + A u_x = 0."""

    kind = "linear"
    has_chart = True
    curve_radius = 1e9    # linear curves are exact at any strength

    def __init__(self, A, box=None, ref_state=None):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        n = len(self.A)
        if box is None:
            box = Box(-10 * np.ones(n), 10 * np.ones(n))
        if ref_state is None:
            ref_state = np.zeros(n)
        self._eig = self._numeric_eigen(np.asarray(ref_state, dtype=float))
        super().__init__(n, int(np.sum(self._eig.lams < 0)), box,
                         ref_state=ref_state)

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

    def least_speed(self):
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
                 min_speed=0.0):
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
        super().__init__(2, 1, box, ref_state=ref_state)
        self.min_speed = float(min_speed)
        self._w_ref = self._w_raw(self.ref_state)

    def sound_speed(self, rho):
        return self.K * rho ** self.theta

    def flux(self, u):
        """f(u), from u unpacked once into Python floats: the arithmetic and
        libm pow of numpy scalars, without their per-operation cost."""
        rho, v = np.asarray(u, dtype=float).tolist()
        return np.array([rho * v,
                         0.5 * v * v + self.K ** 2 * rho ** (self.gamma - 1.0)
                         / (self.gamma - 1.0)])

    def jacobian(self, u):
        rho, v = u
        return np.array([[v, rho],
                         [self.K ** 2 * rho ** (self.gamma - 2.0), v]])

    def lambdas(self, u):
        """(v - c, v + c) at u, in Python floats as ``flux``."""
        rho, v = np.asarray(u, dtype=float).tolist()
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

    def hessian(self, u):
        rho = float(u[0])
        d2p = self.K ** 2 * (self.gamma - 2.0) * rho ** (self.gamma - 3.0)
        return np.array([[[0.0, 1.0], [1.0, 0.0]], [[d2p, 0.0], [0.0, 1.0]]])

    def gnl(self, u):
        return np.full(2, 0.25 * (self.gamma + 1.0))

    def _w_raw(self, u):
        """(v - h, v + h) at u, h = (K / theta) rho^theta, as Python floats."""
        rho, v = np.asarray(u, dtype=float).tolist()
        s = (self.K / self.theta) * rho ** self.theta
        return v - s, v + s

    def to_riemann(self, u):
        """Riemann coordinates of u relative to ref_state, in Python floats
        as ``flux``."""
        (w1, w2), (r1, r2) = self._w_raw(u), self._w_ref
        return np.array([w1 - r1, w2 - r2])

    def from_riemann(self, w):
        """The state at Riemann coordinates w, in Python floats as ``flux``."""
        (w1, w2), (r1, r2) = np.asarray(w, dtype=float).tolist(), self._w_ref
        raw1, raw2 = w1 + r1, w2 + r2
        spread = 0.5 * (raw2 - raw1)
        if spread <= 0.0:
            raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
        rho = (self.theta * spread / self.K) ** (1.0 / self.theta)
        return np.array([rho, 0.5 * (raw1 + raw2)])

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
        # (P(rho) - P(rho0)) / x, or its limit P'(rho0) once expm1 underflows
        e = math.expm1(g1 * lg)
        secant = p0 * e / x if abs(e) >= sys.float_info.min else g1 * p0 / rho0
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

    def riemann_middle(self, u1, u2, d1=1, d2=-1):
        """Crossing of the family-1 Lax curve through u1 with the family-2
        Lax curve through u2, each taken forward (d_i = 1) or backward (-1)
        from its base (Toro 2009, ch. 4): (ul, ur) is the Riemann problem,
        (v, v', 1, 1) the boundary split, (u*, w, -1, -1) the reverse one.

        The crossing density is the root of the increasing gap
        f(rho; rho_1) + f(rho; rho_2) + v_2 - v_1, seeded where the chart
        branches meet, at (w1 of u2, w2 of u1).  f is the Hugoniot jump x q
        above the base density for family 1 forward and family 2 backward,
        below it otherwise, and the chart jump dh on the other side.  A
        backward family-1 curve keeps u1 when the gap there is below RES_TOL,
        as Newton keeps a start that meets its tolerance.

        Returns (um, sigmas, speeds, residual): the crossing; the jumps
        w_i(right) - w_i(left) of its two waves; the mass-jump speeds of u1 to
        um and um to u2, v_1 - rho_m q_1 and v_2 + rho_m q_2, which are the
        shock speeds where a wave is a shock; and the gap at rho_m.
        """
        rho_1, v_1 = float(u1[0]), float(u1[1])
        rho_2, v_2 = float(u2[0]), float(u2[1])
        th = self.theta
        h_mid = 0.5 * (v_1 - v_2) + 0.5 * self.K / th * (rho_1 ** th + rho_2 ** th)
        if h_mid <= 0.0:
            raise DomainError("Riemann coordinates hit vacuum (w2 <= w1)")
        seed = (th * h_mid / self.K) ** (1.0 / th)

        def jump(rho0, x, above):
            """f(rho0 + x; rho0), its slope, dh and q; Hugoniot if x * above > 0."""
            dh, ddh, q, dxq = self._wave_terms(rho0, x)
            return (dh, ddh, dh, q) if x * above <= 0.0 else (x * q, dxq, dh, q)

        def gap(rho):
            f_1, df_1, _, _ = jump(rho_1, rho - rho_1, d1)
            f_2, df_2, _, _ = jump(rho_2, rho - rho_2, -d2)
            return f_1 + f_2 + v_2 - v_1, df_1 + df_2

        rho = (rho_1 if d1 < 0 and abs(gap(rho_1)[0]) < RES_TOL
               else scalar_root(gap, seed, 0.0, math.inf, context="(gas riemann)"))
        f_1, _, dh_1, q_1 = jump(rho_1, rho - rho_1, d1)
        f_2, _, dh_2, q_2 = jump(rho_2, rho - rho_2, -d2)
        v_m = v_1 if rho == rho_1 else 0.5 * (v_1 - f_1 + v_2 + f_2)
        sigmas = [d1 * (v_m - v_1 - dh_1), d2 * (v_m - v_2 + dh_2)]
        return (np.array([rho, v_m]), np.array(sigmas),
                (v_1 - rho * q_1, v_2 + rho * q_2), abs(f_1 + f_2 + v_2 - v_1))

    def structurally_valid(self, u):
        rho, v = u
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
    once into plain rows per derivative order, (entry, coefficient,
    powers), where powers pairs a component with its nonzero exponent;
    ``_entries`` sums the rows of one order on Python floats, and the
    eigenstructure is the generic numeric one.
    """

    kind = "custom-table"

    def __init__(self, terms, p, box, ref_state=None):
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
        super().__init__(n, p, box, ref_state=ref_state)
        # an exponent beyond int64, which numpy's power took, raises
        # OverflowError here
        exps = np.array([ex for _, _, ex in rows], dtype=int).tolist()
        rows = [(k, float(c), ex) for (k, c, _), ex in zip(rows, exps)]
        # order d + 1 differentiates each order-d row in every direction j;
        # a row whose coefficient vanishes adds nothing to a sum that starts
        # at 0.0, so it is dropped, and 0 ** -1 never enters a sum
        orders = [rows]
        for _ in range(2):
            orders.append([(k * n + j, c * e, [*ex[:j], e - 1, *ex[j + 1:]])
                           for k, c, ex in orders[-1]
                           for j, e in enumerate(ex) if c * e != 0.0])
        self._rows = [[(k, c, tuple((j, float(e)) for j, e in enumerate(ex)
                                    if e)) for k, c, ex in rows]
                      for rows in orders]

    def _entries(self, u, order):
        """The order-th derivative of the flux at u, its n ** (order + 1)
        entries as one list of floats, in C order.

        Each entry sums c * (u_j1 ** e1 * u_j2 ** e2 ...) over its rows in
        table order, from 0.0.  A power that overflows, or 0.0 to a negative
        power, is the value numpy's power gives: inf, negative for a
        negative base and an odd exponent, without a warning; the eigensolve
        rejects a non-finite Jacobian with a DomainError."""
        u = np.asarray(u, dtype=float).tolist()
        out = [0.0] * self.n ** (order + 1)
        for k, c, powers in self._rows[order]:
            prod = 1.0
            for j, e in powers:
                x = u[j]
                try:
                    prod *= x ** e
                except (OverflowError, ZeroDivisionError):
                    prod *= math.copysign(math.inf, x) if e % 2 else math.inf
            out[k] += c * prod
        return out

    def flux(self, u):
        return np.array(self._entries(u, 0))

    def jacobian(self, u):
        return np.array(self._entries(u, 1)).reshape(self.n, self.n)

    def hessian(self, u):
        return np.array(self._entries(u, 2)).reshape((self.n,) * 3)

    def _flat_jacobian(self, u):
        return self._entries(u, 1)


def _check_speeds(speeds, imag, u):
    """Raise DomainError where one of the ascending speeds at u is not
    finite (a finite Jacobian whose speed overflows), and
    HyperbolicityError where the speeds, whose largest imaginary part is
    imag, are complex or coincide."""
    if not all(map(math.isfinite, speeds)):
        raise DomainError(f"characteristic speeds are not finite at {u}")
    top = max(1.0, speeds[-1], -speeds[0])
    if imag > 1e-12 * top:
        raise HyperbolicityError(f"complex characteristic speeds at {u}")
    for lo, hi in zip(speeds, speeds[1:]):
        if hi - lo < 1e-10 * top:
            raise HyperbolicityError(f"coincident characteristic speeds at {u}")


def _basis_2x2(a, b, c, d, u):
    """``_sorted_basis`` of the finite Jacobian J = [[a, b], [c, d]] at u, in
    Python floats: the speeds, and the columns r_1 and r_2.

    With m = (a + d) / 2, h = (a - d) / 2 and q = h^2 + bc the speeds are
    m -/+ sqrt(q): the one farther from 0 as written, the other as det J
    over it, which cancels nothing.  r_i is the longer of the rows
    (b, lambda_i - a) and (lambda_i - d, c) of adj(J - lambda_i I),
    normalized.  The speeds are formed in the power of two of the largest
    of |a|, |d| and sqrt|bc|, with bc the product of the mantissas of b and
    c, so that neither a tiny b nor a tiny c loses bc; the rows in the
    power of two of the largest entry.  Both scalings are exact, and no
    square or product overflows; a speed (or imaginary part) beyond the
    largest float is inf, which ``_check_speeds`` refuses."""
    (mb, eb), (mc, ec) = math.frexp(b), math.frexp(c)
    e = math.frexp(max(abs(a), abs(d),
                       math.sqrt(abs(b)) * math.sqrt(abs(c))))[1]
    sa, sd = math.ldexp(a, -e), math.ldexp(d, -e)
    bc = math.ldexp(mb * mc, eb + ec - 2 * e)
    m, h = 0.5 * (sa + sd), 0.5 * (sa - sd)
    q = h * h + bc
    if q > 0.0:
        far = m + math.copysign(math.sqrt(q), m)
        lo, hi = sorted((far, (sa * sd - bc) / far))
    else:
        lo = hi = m
    speeds = [_unscale(lo, e), _unscale(hi, e)]
    _check_speeds(speeds, _unscale(math.sqrt(max(-q, 0.0)), e), u)
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b = math.ldexp(a, -k), math.ldexp(b, -k)
    c, d = math.ldexp(c, -k), math.ldexp(d, -k)
    lo, hi = math.ldexp(lo, e - k), math.ldexp(hi, e - k)
    return speeds, [_longer_unit(b, lo - a, lo - d, c),
                    _longer_unit(b, hi - a, hi - d, c)]


def _unscale(x, e):
    """x * 2**e, exact, and +-inf where that is beyond the largest float."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _longer_unit(x, y, z, w):
    """The longer of the vectors (x, y) and (z, w), normalized, as a list."""
    if z * z + w * w > x * x + y * y:
        x, y = z, w
    norm = math.hypot(x, y)
    return [x / norm, y / norm]


def _curvature(hessian, right, left):
    """C[k, i] = l_k D^2 f[r_i, r_i] for the columns r_i of right and the
    rows l_k of left.  The diagonal is grad(lambda_i) . r_i.  Off it,
    C[k, i] / (lambda_i - lambda_k) is the r_k component of D r_i[r_i]:
    apply l_k to the derivative of (Df - lambda_i) r_i = 0 along r_i."""
    return np.einsum("ka,abc,bi,ci->ki", left, hessian, right, right)


def verify_hypotheses(model, samples_per_axis=12):
    """Sweep the admissible domain and measure the structural hypotheses.

    Checks the speed sign pattern, the uniform speed floor, genuine
    nonlinearity of every family, and (for 2x2 systems) the clockwise-turning
    wedge inequalities of the eigenvector fields.  Violations are collected,
    never raised.  One pass stacks each grid point's speeds and curvature
    matrix; each check is then a column of per-point values, reduced once,
    so violations come check by check, non-hyperbolic states first.  A
    point passes a check only where its value is finite, and a check with
    a NaN value has margin NaN: a flux whose Hessian overflows fails.

    The sweep audits ``model.admitted_grid``, the states ``check_domain``
    lets a run reach; it is the admission check run before control
    experiments.

    The report is computed once per model and samples_per_axis, and shared
    by later calls: models are immutable.  A sweep that raises stores
    nothing.  A report that fails a check is kept, and each caller that
    gates on it refuses the model again.
    """
    return model._fact(("hypotheses", samples_per_axis),
                       lambda: _sweep_hypotheses(model, samples_per_axis))


def _sweep_hypotheses(model, samples_per_axis):
    pts = model.admitted_grid(samples_per_axis)
    n, p = model.n, model.p
    violations, used, lams, curv, w12 = [], [], [], [], []
    for u in pts:
        try:
            eig = model.eigen(u)
        except HyperbolicityError:
            violations.append(("hyperbolicity", u))
            continue
        used.append(u)
        lams.append(eig.lams)
        curv.append(_curvature(model.hessian(u), eig.right, eig.left))
        if n == 2:
            w12.append(wedge(eig.r(1), eig.r(2)))
    lams, curv = np.reshape(lams, (-1, n)), np.reshape(curv, (-1, n, n))
    # one column of per-point values per check; a point passes where its
    # value is finite and positive, or at least SPEED_FLOOR for the speed floor
    columns = {"speed_signs": np.min(np.hstack([-lams[:, :p], lams[:, p:]]), axis=1),
               "speed_floor": np.min(np.abs(lams), axis=1),
               **{f"gnl_{i + 1}": curv[:, i, i] for i in range(n)}}
    if n == 2:
        w12 = np.array(w12)
        columns["wedge_r1_r2"] = -w12
        # wedge(r_i, D r_i[r_i]) keeps only the r_k component, k != i
        for i, k, w in ((0, 1, w12), (1, 0, -w12)):
            columns[f"wedge_bend_{i + 1}"] = -(
                curv[:, k, i] / (lams[:, i] - lams[:, k]) * w)
    # builtin min is a running minimum from inf: of equal values it keeps
    # the first, which fixes the sign of a zero margin; it skips NaN, so a
    # column holding NaN gets the margin NaN
    margins = {"speed_band": max([0.0, *np.max(np.abs(lams), axis=1).tolist()])}
    checks = {"speed_band": bool(np.isfinite(margins["speed_band"]))}
    for name, column in columns.items():
        rule = column >= SPEED_FLOOR if name == "speed_floor" else column > 0
        fails = ~(rule & np.isfinite(column))
        margins[name] = (np.nan if np.isnan(column).any()
                         else min([np.inf, *column.tolist()]))
        checks[name] = not fails.any()
        violations += [(name, used[j]) for j in np.flatnonzero(fails)]
    return HypothesisReport(checks, margins, violations, len(used))


def crossing_time(model, interval):
    """Max time for a wave of any family to cross the interval.

    Computed as (b - a) / model.least_speed(), the least |lambda_i| over the
    admitted box grid.  The least speed, not tau, is cached on the model,
    because tau depends on the interval; an empty grid stores nothing.
    Raises DomainError, on every call, when that speed is below the floor.
    """
    a, b = interval
    min_speed = model.least_speed()
    if min_speed < SPEED_FLOOR:
        raise DomainError(
            f"characteristic speed {min_speed:.3e} below floor {SPEED_FLOOR:.1e}")
    return (b - a) / min_speed
