"""Riemann problems and boundary splitting solves on composed Lax curves."""

import math
from dataclasses import dataclass

import numpy as np

from .curves import SIGMA_NULL, lax_curve
from .errors import ConvergenceError, RadiusError
from .newton import newton_solve

DELTA_RIEMANN = 0.3   # default solvable radius, in Riemann-coordinate units
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Wave:
    """One elementary wave of a Riemann solution."""

    family: int
    sigma: float
    kind: str            # shock | rarefaction | contact
    speed_lo: float
    speed_hi: float
    left: np.ndarray
    right: np.ndarray
    rh_residual: float = 0.0


@dataclass(frozen=True)
class RiemannSolution:
    sigmas: np.ndarray           # (n,), signed strengths, including null waves
    states: tuple                # n+1 intermediate states, left to right
    waves: tuple                 # non-null waves only, family ascending
    residual: float

    def sigma(self, family):
        return float(self.sigmas[family - 1])


@dataclass(frozen=True)
class BoundarySplit:
    """Result of a boundary splitting solve: the middle state and the wave
    strengths of both groups."""

    state: np.ndarray
    sigmas: np.ndarray
    residual: float


def _wave_points(model, ul, sigmas, memo=None):
    """Lax curve points of families 1, 2, ... composed from ul with the
    given strengths.  A ``memo`` dict, kept for one solve from one ul,
    holds each point under the bytes of its strength prefix (bytes keep
    -0.0 apart from 0.0), so no point is computed twice in that solve."""
    u = np.asarray(ul, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    points = []
    for i, s in enumerate(sig.tolist(), start=1):
        if memo is None:
            cp = lax_curve(model, u, i, s)
        else:
            key = sig[:i].tobytes()
            cp = memo.get(key)
            if cp is None:
                cp = memo[key] = lax_curve(model, u, i, s)
        points.append(cp)
        u = cp.state
    return points


def compose_waves(model, ul, sigmas):
    """Apply the Lax curves of families 1..n with the given strengths."""
    points = _wave_points(model, ul, sigmas)
    return points[-1].state if points else np.asarray(ul, dtype=float)


def _coords(model, u):
    if model.has_chart:
        return model.to_riemann(u)
    eig = model.eigen(np.asarray(u, dtype=float))
    return eig.left @ (np.asarray(u, dtype=float) - model.ref_state)


def _checked_jump(model, u_from, u_to, radius, label, kind):
    """Coordinate jump from u_from to u_to, both admissible states; a jump
    beyond radius raises RadiusError."""
    model.check_domain(u_from)
    model.check_domain(u_to)
    dw = _coords(model, u_to) - _coords(model, u_from)
    jump = float(np.max(np.abs(dw)))
    if jump > radius:
        raise RadiusError(f"{label} {jump:.3g} exceeds {kind} radius {radius}")
    return dw


def _classify(model, wave_point, family, ul):
    sigma = wave_point.sigma
    if model.kind == "linear":
        kind = "contact"
        lo = hi = wave_point.speed
    elif sigma < 0.0:
        kind = "shock"
        lo = hi = wave_point.speed
    else:
        kind = "rarefaction"
        lo = model.lambdas(ul)[family - 1]
        hi = wave_point.speed
    return Wave(family, float(sigma), kind, float(lo), float(hi),
                np.asarray(ul, dtype=float), wave_point.state,
                wave_point.residual)


def _solution_from_sigmas(model, ul, sigmas, ur=None, memo=None):
    states = [np.asarray(ul, dtype=float)]
    waves = []
    for i, (s, cp) in enumerate(zip(sigmas, _wave_points(model, ul, sigmas, memo)),
                                start=1):
        if abs(s) >= SIGMA_NULL:
            waves.append(_classify(model, cp, i, states[-1]))
        states.append(cp.state)
    residual = 0.0
    if ur is not None:
        residual = float(np.max(np.abs(states[-1] - np.asarray(ur, dtype=float))))
    return RiemannSolution(np.asarray(sigmas, dtype=float), tuple(states),
                           tuple(waves), residual)


def solve_riemann(model, ul, ur, radius=DELTA_RIEMANN):
    """Strengths sigma_1..sigma_n with Psi_n o ... o Psi_1 (ul) = ur.

    Linear models project on the left eigenbasis.  The gas model solves
    one scalar equation for the middle density
    (``GasModel.riemann_strengths``).  Other models run Newton on the
    strength vector with a finite-difference Jacobian of the curve
    composition, from the Riemann-coordinate jump.  The strengths are then
    recomposed along the Lax curves, and a recomposition that misses ur by
    more than RESIDUAL_TOL raises ConvergenceError.  Raises RadiusError when
    the data jump exceeds ``radius``.

    Each Lax curve point is computed once per solve: on the Newton branch
    the composition keeps its points for the solve, so the Jacobian column
    of a later strength reuses the unchanged earlier curves, and the
    recomposition reuses the point Newton accepted last.
    """
    ul = np.asarray(ul, dtype=float)
    ur = np.asarray(ur, dtype=float)
    linear = model.kind == "linear"
    dw = _checked_jump(model, ul, ur, math.inf if linear else radius,
                       "data jump", "solvable")
    if linear:
        # decoupled transport: exact projection on the left eigenbasis
        sig = model.eigen(ul).left @ (ur - ul)
        return _solution_from_sigmas(model, ul, sig, ur=ur)
    if float(np.max(np.abs(ur - ul))) == 0.0:
        return _solution_from_sigmas(model, ul, np.zeros(model.n), ur=ur)

    if model.kind == "gas":
        sig = model.riemann_strengths(ul, ur)
        memo = None
    else:
        memo = {}

        def fn(sig):
            return _wave_points(model, ul, sig, memo)[-1].state - ur

        sig = newton_solve(fn, dw, context="(riemann)")
    sol = _solution_from_sigmas(model, ul, sig, ur=ur, memo=memo)
    if sol.residual > RESIDUAL_TOL:
        raise ConvergenceError(f"riemann residual {sol.residual:.3e} above tolerance")
    return sol


def _up(model, v, sig_high):
    u = np.asarray(v, dtype=float)
    for k, i in enumerate(range(model.p + 1, model.n + 1)):
        u = lax_curve(model, u, i, float(sig_high[k])).state
    return u


def split_boundary_pair(model, v, v_prime, radius=DELTA_RIEMANN):
    """Middle state v'' reachable from v by families <= p and from v' by
    families >= p+1, with the strengths of both groups.

    This is the full-rank splitting that lets a boundary datum at x = b send
    only left-moving families into the domain.
    """
    v = np.asarray(v, dtype=float)
    vp = np.asarray(v_prime, dtype=float)
    dw = _checked_jump(model, v, vp, radius, "|v - v'| =", "split")
    p = model.p

    sig0 = np.concatenate([dw[:p], -dw[p:]])

    def fn(sig):
        return _up(model, vp, sig[p:]) - compose_waves(model, v, sig[:p])

    sig = newton_solve(fn, sig0, context="(boundary split)")
    mid = compose_waves(model, v, sig[:p])
    residual = float(np.max(np.abs(_up(model, vp, sig[p:]) - mid)))
    return BoundarySplit(mid, sig, residual)


def split_boundary_pair_reverse(model, w, u_star, radius=DELTA_RIEMANN):
    """State v''' from which families >= p+1 reach w and families <= p
    reach u_star; used to steer the x = a boundary toward u_star.

    Newton starts at v''' = u_star with the whole coordinate jump on the
    upper families.  On a Riemann chart that start is exact when w lies on
    the upper-family curve through u_star, and u_star is returned bitwise.
    """
    w = np.asarray(w, dtype=float)
    us = np.asarray(u_star, dtype=float)
    dw = _checked_jump(model, us, w, radius, "|w - u*| =", "split")
    p, n = model.p, model.n
    sig0 = np.concatenate([np.zeros(p), dw[p:]])

    def fn(x):
        v3, sig = x[:n], x[n:]
        return np.concatenate([_up(model, v3, sig[p:]) - w,
                               compose_waves(model, v3, sig[:p]) - us])

    x = newton_solve(fn, np.concatenate([us, sig0]), context="(reverse split)")
    v3, sig = x[:n], x[n:]
    residual = max(float(np.max(np.abs(_up(model, v3, sig[p:]) - w))),
                   float(np.max(np.abs(compose_waves(model, v3, sig[:p]) - us))))
    return BoundarySplit(v3, sig, residual)
