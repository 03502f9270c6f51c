"""Riemann problems and boundary splits on composed Lax curves.
The waves of every Riemann solution and split come from ``_solution``:
a shock's RH residual and Lax margin are checked, a linear contact's is
carried unchecked.  A boundary split needs a Riemann chart: the gas
crosses two of its curves, a linear model projects on its left eigenbasis."""

from dataclasses import dataclass

import numpy as np

from .curves import SIGMA_NULL, lax_curve
from .errors import ConvergenceError, RadiusError
from .newton import newton_solve

DELTA_RIEMANN = 0.3   # solvable radius, in Riemann-coordinate units
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Wave:
    """One elementary wave of a Riemann solution.  ``rh_residual`` is
    max |f(right) - f(left) - s (right - left)| at its speed s: at most
    RESIDUAL_TOL max(1, |f(left)|, |f(right)|) for a shock, unchecked
    roundoff for a contact, 0.0 for a rarefaction."""

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


@dataclass(frozen=True)
class BoundarySplit:
    """Result of a boundary splitting solve: the middle state, the wave
    strengths of both groups, and the waves of the group that enters."""

    state: np.ndarray
    sigmas: np.ndarray
    waves: tuple
    residual: float


def _wave_points(model, ul, sigmas):
    """Lax curve points of families 1, 2, ... composed from ul with the
    given strengths."""
    u = np.asarray(ul, dtype=float)
    points = []
    for i, s in enumerate(np.asarray(sigmas, dtype=float), start=1):
        points.append(lax_curve(model, u, i, float(s)))
        u = points[-1].state
    return points


def compose_waves(model, ul, sigmas):
    """Apply the Lax curves of families 1, 2, ... with the given strengths;
    the last state, or ul when there are no strengths."""
    points = _wave_points(model, ul, sigmas)
    return points[-1].state if points else np.asarray(ul, dtype=float)


def _coords(model, u):
    if model.has_chart:
        return model.to_riemann(u)
    eig = model.eigen(np.asarray(u, dtype=float))
    return eig.left @ (np.asarray(u, dtype=float) - model.ref_state)


def _checked_jump(model, u_from, u_to, label, kind):
    """Coordinate jump from u_from to u_to, both admissible states; a jump
    beyond DELTA_RIEMANN raises RadiusError."""
    model.check_domain(u_from)
    model.check_domain(u_to)
    dw = _coords(model, u_to) - _coords(model, u_from)
    jump = max(map(abs, dw.tolist()))
    if jump > DELTA_RIEMANN:
        raise RadiusError(
            f"{label} {jump:.3g} exceeds {kind} radius {DELTA_RIEMANN}")
    return dw


def _solution(model, states, sigmas, speeds, residual):
    """The solution whose wave of family i + 1 has strength sigmas[i] and
    joins states[i] to states[i + 1], less its null waves.  A linear
    model's waves are contacts at lambda_i; otherwise a rarefaction moves at
    lambda_i of its two ends and a shock at speeds[i].  A shock's RH
    residual, or its violation of the Lax condition lambda_i(right) <= s <=
    lambda_i(left), above RESIDUAL_TOL times the largest of 1 and the
    |fluxes|, or |lambda_i|, at its ends raises ConvergenceError.  A
    contact's is not checked: a linear model solves jumps of any size, so
    its residual is roundoff of the size of |u|."""
    sigmas = np.asarray(sigmas, dtype=float)
    lams = [model.lambdas(u).tolist() for u in states]
    waves = []
    for i, sigma in enumerate(sigmas.tolist()):
        if abs(sigma) < SIGMA_NULL:
            continue
        left, right = states[i], states[i + 1]
        lo, hi = lams[i][i], lams[i + 1][i]
        if model.kind == "linear":
            kind, s = "contact", lo
        elif sigma >= 0.0:
            waves.append(Wave(i + 1, sigma, "rarefaction", lo, hi, left, right))
            continue
        else:
            kind, s = "shock", float(speeds[i])
        f_left, f_right = model.flux(left), model.flux(right)
        rh = max(map(abs, (f_right - f_left - s * (right - left)).tolist()))
        if kind == "shock":
            scale = max(1.0, *map(abs, f_left.tolist() + f_right.tolist()))
            if rh > RESIDUAL_TOL * scale:
                raise ConvergenceError(f"shock family {i + 1}: RH residual "
                                       f"{rh:.3e} above tolerance")
            if max(hi - s, s - lo) > RESIDUAL_TOL * max(1.0, abs(lo), abs(hi)):
                raise ConvergenceError(
                    f"shock family {i + 1} at speed {s!r} violates the Lax "
                    f"condition {lo!r} >= s >= {hi!r}")
        waves.append(Wave(i + 1, sigma, kind, s, s, left, right, rh))
    return RiemannSolution(sigmas, tuple(states), tuple(waves), residual)


def _solution_from_sigmas(model, ul, sigmas, ur, points=None):
    """The solution through the Lax curve points composed from ul with the
    strengths (``points``, when known), and its residual |states[-1] - ur|."""
    points = points or _wave_points(model, ul, sigmas)
    states = [np.asarray(ul, dtype=float)] + [cp.state for cp in points]
    residual = float(np.max(np.abs(states[-1] - np.asarray(ur, dtype=float))))
    return _solution(model, states, sigmas, [cp.speed for cp in points],
                     residual)


def _gas_crossing(model, solve, *ends):
    """``model.riemann_middle(*ends)``; a root residual, in velocity units,
    above RESIDUAL_TOL times the largest of 1 and the two mass-jump speeds
    raises ConvergenceError, a crossing outside the domain DomainError."""
    um, sigmas, speeds, residual = model.riemann_middle(*ends)
    if residual > RESIDUAL_TOL * max(1.0, abs(speeds[0]), abs(speeds[1])):
        raise ConvergenceError(f"gas {solve} residual {residual:.3e} above tolerance")
    model.check_domain(um)
    return um, sigmas, speeds, residual


def solve_riemann(model, ul, ur):
    """Strengths sigma_1..sigma_n with Psi_n o ... o Psi_1 (ul) = ur, the
    intermediate states and the elementary waves.

    Linear models project on the left eigenbasis, at any jump.  The gas
    model finds its middle state by one scalar root (``_gas_crossing``),
    and no Lax curve is evaluated.  A chartless model runs Broyden-Newton on
    the strength vector from the Riemann-coordinate jump, seeded with the
    right eigenbasis at ul, which is the Jacobian of the curve composition
    at zero strength; the states and shock speeds are those of the Lax curve
    points of Newton's last evaluation, its root, so each point is computed
    once, and a composition that misses ur by more than RESIDUAL_TOL raises
    ConvergenceError.  ``_solution`` builds the waves of every model: a
    shock's RH residual and Lax margin are checked, a linear contact's RH
    residual is carried unchecked.  A nonlinear model raises RadiusError
    when the data jump exceeds DELTA_RIEMANN.
    """
    ul = np.asarray(ul, dtype=float)
    ur = np.asarray(ur, dtype=float)
    if model.kind == "linear":
        # decoupled transport: exact projection on the left eigenbasis
        model.check_domain(ul)
        model.check_domain(ur)
        sig = model.eigen(ul).left @ (ur - ul)
        return _solution_from_sigmas(model, ul, sig, ur=ur)
    dw = _checked_jump(model, ul, ur, "data jump", "solvable")
    if ul.tolist() == ur.tolist():
        return RiemannSolution(np.zeros(model.n), (ul,) * (model.n + 1), (), 0.0)
    if model.kind == "gas":
        um, sigmas, speeds, residual = _gas_crossing(model, "riemann", ul, ur)
        return _solution(model, (ul, um, ur), sigmas, speeds, residual)

    points = None

    def fn(sig):
        nonlocal points
        points = _wave_points(model, ul, sig)
        return points[-1].state - ur

    sig = newton_solve(fn, dw, model.eigen(ul).right, "(riemann)")
    sol = _solution_from_sigmas(model, ul, sig, ur=ur, points=points)
    if sol.residual > RESIDUAL_TOL:
        raise ConvergenceError(f"riemann residual {sol.residual:.3e} above tolerance")
    return sol


def _split(model, a, b, label, d):
    """The split of (a, b) = (v, v') forward (d = 1) or (u*, w) in reverse
    (d = -1).  A chartless model raises NotImplementedError before any Lax
    curve is evaluated.  The gas crosses its two curves from a and b, and
    raises RadiusError on a jump beyond DELTA_RIEMANN.  A linear model's Lax
    curves are the lines u + sigma r_i, so its split, of a jump of any size,
    is the Riemann solution from a to b grouped by side: its strengths are
    sigma = L(a) (b - a), with those below SIGMA_NULL zeroed, so u* comes
    back when w lies on its upper-family curve; its state is the solution's
    state after family p; its entering waves are families <= p forward and
    > p in reverse; and its residual is the solution's.  The strengths of
    the group that does not enter are negated, the sign convention of both
    directions."""
    if not model.has_chart:
        raise NotImplementedError(f"{model.kind} model has no Riemann chart")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    enters = (np.arange(model.n) < model.p) == (d == 1)
    if model.kind == "gas":
        _checked_jump(model, a, b, label, "split")
        state, sig, speeds, residual = _gas_crossing(model, "split", a, b, d, d)
        sol = _solution(model, (a, state, state) if d == 1 else (state, state, b),
                        np.where(enters, sig, 0.0), speeds, residual)
        return BoundarySplit(state, sig, sol.waves, residual)
    model.check_domain(a)
    model.check_domain(b)
    sig = model.eigen(a).left @ (b - a)
    sig[np.abs(sig) < SIGMA_NULL] = 0.0
    sol = _solution_from_sigmas(model, a, sig, b)
    waves = tuple(w for w in sol.waves if enters[w.family - 1])
    # 0.0 - sig, not -sig: a zeroed strength stays +0.0
    return BoundarySplit(sol.states[model.p], np.where(enters, sig, 0.0 - sig),
                         waves, sol.residual)


def split_boundary_pair(model, v, v_prime):
    """Middle state v'' reachable from v by families <= p and from v' by
    families >= p+1, with the strengths of both groups.

    This is the full-rank splitting that lets a boundary datum at x = b send
    only left-moving families into the domain.  ``_split`` solves it.
    """
    return _split(model, v, v_prime, "|v - v'| =", 1)


def split_boundary_pair_reverse(model, w, u_star):
    """State v''' from which families >= p+1 reach w and families <= p
    reach u_star; used to steer the x = a boundary toward u_star.

    ``_split`` solves it, and returns u_star itself when w lies on the
    upper-family curve through it.
    """
    return _split(model, u_star, w, "|w - u*| =", -1)
