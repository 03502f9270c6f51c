"""Boundary control: exact linear control, and nonlinear control built from
one boundary hop.

A hop splits the x = b trace so that only families <= p enter, waits one
crossing time tau, reverse-splits the x = a trace so that only families
>= p+1 enter, and waits tau again.  Steering between constant states is N
hops along a Riemann-coordinate chain; the 3 tau stabilization step is a
tau wait followed by one hop toward u_star, iterated to quadratic-type
contraction.  A plan is its list of actions; actions and step snapshots
carry absolute time, and a plan's horizon is read from the run.

All constants of the contraction estimates (step constant, admissible
smallness, doubly-exponential rate) are measured from runs and reported;
none are hard-coded.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolationError, DomainError
from .models import LinearModel, crossing_time
from .profiles import PiecewiseConstant, constant_profile
from .tracking import MAX_EVENTS, Simulation

EPS_FACTOR = 0.25   # front-tracking accuracy ratio of successive steps
DELTA_FLOOR = 1e-9  # round-off level of stabilize's delta
LOGLOG_FLOOR = 1e-13  # deltas at or below are round-off to the log-log fit

__all__ = [
    "crossing_time", "linear_exact_control", "steer_constant_states",
    "stabilization_step", "stabilize", "ContractionRecord",
    "LinearControlSolution", "SteerResult", "StepResult", "StabilizeResult",
]


# -- plans and records ---------------------------------------------------------


@dataclass(frozen=True)
class ControlAction:
    time: float
    side: str
    outer_state: np.ndarray


@dataclass
class ContractionRow:
    k: int
    time: float
    sup_dist: float
    tv: float
    delta: float
    ratio: float    # delta_k / delta_{k-1}^2, nan for k = 0


@dataclass
class ContractionRecord:
    rows: list = field(default_factory=list)
    failure: str = ""

    @property
    def deltas(self):
        return np.array([r.delta for r in self.rows])

    def loglog_fit(self):
        """Slope/intercept/R^2 of log log(1/delta_k) against k."""
        ks, ys = [], []
        for r in self.rows:
            if LOGLOG_FLOOR < r.delta < 1.0:
                ks.append(r.k)
                ys.append(math.log(math.log(1.0 / r.delta)))
        if len(ks) < 2:
            return 0.0, 0.0, 0.0
        ks = np.asarray(ks, dtype=float)
        ys = np.asarray(ys)
        slope, intercept = np.polyfit(ks, ys, 1)
        pred = slope * ks + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return float(slope), float(intercept), r2


# -- linear exact control ------------------------------------------------------


@dataclass
class LinearControlSolution:
    """Decoupled-transport solution meeting both end profiles exactly."""

    model: LinearModel
    a: float
    b: float
    T: float
    tau: float
    components: list       # per family: scalar data on the whole line

    def profile_at(self, t):
        """The solution profile u(t, .) on [a, b] as a piecewise-constant."""
        lams = self.model.lambdas(None)
        bps = set()
        for i, g in enumerate(self.components):
            for x in g.xs + lams[i] * t:
                if self.a < x < self.b:
                    bps.add(float(x))
        xs = np.array(sorted(bps))
        edges = np.concatenate(([self.a], xs, [self.b]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        right = self.model.eigen(None).right
        values = np.empty((len(mids), self.model.n))
        for row, x in enumerate(mids):
            coeff = np.array([g(x - lams[i] * t)
                              for i, g in enumerate(self.components)])
            values[row] = right @ coeff
        return PiecewiseConstant(self.a, self.b, xs, values)

    def boundary_data(self):
        """Induced boundary controls as scalar step functions on [0, T].

        Families moving right are prescribed at x = a, families moving left
        at x = b, matching the well-posed boundary value problem.
        """
        lams = self.model.lambdas(None)
        out = {}
        for i, g in enumerate(self.components):
            family = i + 1
            side, x_bd = ("b", self.b) if lams[i] < 0 else ("a", self.a)
            ts = sorted({(x_bd - bx) / lams[i] for bx in g.xs
                         if 0.0 < (x_bd - bx) / lams[i] < self.T})
            edges = np.concatenate(([0.0], ts, [self.T]))
            mids = 0.5 * (edges[:-1] + edges[1:])
            vals = np.array([g(x_bd - lams[i] * t) for t in mids])
            out[(side, family)] = PiecewiseConstant(0.0, self.T, ts, vals)
        return out


def linear_exact_control(model, phi, psi, T):
    """Solution of the constant-coefficient system of the LinearModel
    ``model`` taking profile phi at time 0 to profile psi at time T >= tau,
    by decoupled transport.

    Each characteristic component carries phi inside [a, b] and the
    back-propagated psi on the adjacent interval; the overlap is empty as
    soon as T is at least the crossing time.
    """
    speed = model.least_speed()
    if speed <= 0:
        raise DomainError("linear control requires nonzero characteristic speeds")
    a, b = float(phi.a), float(phi.b)
    if (psi.a, psi.b) != (a, b):
        raise ValueError("phi and psi must live on the same interval")
    lams = model.lambdas(None)
    tau = (b - a) / speed
    if T < tau - 1e-12:
        raise ValueError(f"T={T} below crossing time tau={tau}")

    left = model.eigen(None).left
    components = []
    for i in range(model.n):
        lam = lams[i]
        # scalar data for this family on the whole line: phi on [a, b],
        # shifted psi on [a, b] - lam T, zero elsewhere
        phi_vals = np.atleast_2d(phi.values) @ left[i]
        psi_vals = np.atleast_2d(psi.values) @ left[i]
        seg_phi = (np.concatenate(([a], phi.xs, [b])), phi_vals)
        seg_psi = (np.concatenate(([a - lam * T], psi.xs - lam * T,
                                   [b - lam * T])), psi_vals)
        segments = sorted([seg_phi, seg_psi], key=lambda s: s[0][0])
        xs, vals = [], [0.0]
        for edges, v in segments:
            if xs and abs(edges[0] - xs[-1]) <= 1e-12 * max(1.0, abs(edges[0])):
                xs.pop()          # touching regions share an edge
                vals.pop()
            xs.extend(edges)
            vals.extend(list(v) + [0.0])
        components.append(PiecewiseConstant(-np.inf, np.inf, xs, vals))
    return LinearControlSolution(model, a, b, float(T), tau, components)


# -- boundary hops: steering and stabilization ---------------------------------


def _riemann_chain(model, omega, omega_prime, chain_step):
    """Straight chain between two states in Riemann coordinates.

    A chain of more than MAX_EVENTS points raises ContractViolationError
    before any point is built: each hop injects waves that must leave the
    domain, so its run could only end at MAX_EVENTS."""
    w0 = model.to_riemann(np.asarray(omega, dtype=float))
    w1 = model.to_riemann(np.asarray(omega_prime, dtype=float))
    dist = float(np.linalg.norm(w1 - w0))
    if dist == 0.0:
        return []
    n_steps = max(1, math.ceil(dist / chain_step))
    if n_steps > MAX_EVENTS:
        raise ContractViolationError(
            f"steering chain of {n_steps:.3g} points exceeds "
            f"MAX_EVENTS={MAX_EVENTS}", {"points": n_steps})
    chain = []
    for k in range(1, n_steps + 1):
        u = model.from_riemann(w0 + (k / n_steps) * (w1 - w0))
        model.check_domain(u)
        chain.append(u)
    return chain


def _hop(sim, target, tau, actions, t0=0.0):
    """One boundary hop of ``sim`` toward ``target``, taking 2 tau.

    Injects the split of the x = b trace toward the target, so that only
    families <= p enter, waits tau, injects the reverse split of the x = a
    trace, so that only families >= p+1 enter, and waits tau again.  Appends
    both outer states as actions at absolute time t0 + ``sim.time`` and
    returns, per side, the injected ids still inside at its deadline.
    """
    t = sim.time
    stuck = []
    for k, side in enumerate("ba"):
        ids, state = sim.inject_boundary_riemann(side, target)
        actions.append(ControlAction(t0 + sim.time, side, state))
        # deadlines count from the hop's start: the hop ends at t + 2 tau
        # exactly, not at (t + tau) + tau
        sim.advance_to(t + (k + 1) * tau)
        stuck.append([i for i in ids if i in sim.now.ids])
    return stuck


def _steer(sim, omega, omega_prime, chain_step, tau, actions):
    """Hop ``sim`` toward each point of the Riemann-coordinate chain from
    omega to omega_prime, appending the hops' actions to ``actions``, and
    return the sup distance to each point after its hop."""
    hop_errors = []
    for target in _riemann_chain(sim.model, omega, omega_prime, chain_step):
        _hop(sim, target, tau, actions)
        hop_errors.append(sim.now.sup_distance(target))
    return hop_errors


@dataclass
class SteerResult:
    """A steer's run, crossing time, plan and per-hop errors: its final
    snapshot is ``sim.now`` and its horizon ``sim.time``."""

    sim: Simulation
    tau: float
    actions: list          # ControlAction per injection, in time order
    hop_errors: list


def steer_constant_states(model, omega, omega_prime, interval, eps_fronts,
                          chain_step=0.05):
    """Drive the constant state omega to omega_prime in time 2 N tau: one
    hop toward each of the N points of a Riemann-coordinate chain.

    The x = a trace after a hop's first half lies on the upper-family curve
    through the chain point, so the reverse split imposes the chain point
    itself (bitwise on a Riemann chart) and each hop ends on it.  With
    omega = omega_prime the chain is empty: no hop, no action, horizon 0.
    """
    omega = np.asarray(omega, dtype=float)
    a, b = interval
    tau = crossing_time(model, interval)
    sim = Simulation(model, constant_profile(a, b, omega), eps_fronts)
    actions = []
    hop_errors = _steer(sim, omega, omega_prime, chain_step, tau, actions)
    return SteerResult(sim, tau, actions, hop_errors)


@dataclass
class StepResult:
    """A stabilization step's snapshot at its absolute end time, its run,
    its actions and its timing violations.  The step's horizon is
    ``snapshot.time``."""

    snapshot: object
    sim: Simulation
    actions: list          # ControlAction per injection, in time order
    violations: list


def stabilization_step(model, profile, u_star, eps_fronts, delta0=0.1,
                       t0=0.0):
    """One 3 tau stabilization round of ``profile``, taken at time t0,
    toward the constant state u_star: a tau wait, then one hop toward
    u_star.

    The wait lets every generation-1 front leave through the absorbing
    boundaries.  Returns the snapshot at +3 tau; timing violations
    (generation-1 fronts surviving the wait, injected fronts missing their
    exit deadline) are recorded, not raised.  The step's simulation runs
    its own clock from 0, but the snapshot and the actions carry absolute
    times, counted from t0.
    """
    u_star = np.asarray(u_star, dtype=float)
    rho = profile.sup_distance(u_star)
    tv = profile.total_variation()
    if rho > delta0 or tv > delta0:
        raise ContractViolationError(
            f"stabilization step precondition: sup={rho:.3g}, TV={tv:.3g} "
            f"exceed delta0={delta0}")
    tau = crossing_time(model, (profile.a, profile.b))

    sim = Simulation(model, profile, eps_fronts)
    violations = []

    sim.advance_to(tau)
    leftover = sim.now.ids[sim.now.generations == 1].tolist()
    if leftover:
        violations.append(("phase1_gen1_survivors", leftover))

    actions = []
    stuck = _hop(sim, u_star, tau, actions, t0)
    for phase, ids in zip((2, 3), stuck):
        if ids:
            violations.append((f"phase{phase}_injected_survivors", ids))

    return StepResult(replace(sim.now, time=t0 + 3 * tau), sim, actions,
                      violations)


@dataclass
class StabilizeResult:
    record: ContractionRecord
    steps: list            # StepResult per iteration
    pre_actions: list      # the steering pre-phase's ControlActions
    tau: float


def stabilize(model, phi, u_star, k_max, eps0, chain_step=0.05, delta0=0.1):
    """Iterated stabilization toward u_star with geometrically tightening
    front-tracking accuracy (eps_k = eps0 * EPS_FACTOR^k).

    Records delta_k = max(sup distance to u_star, TV), the measure a
    step's precondition bounds by delta0, at each step boundary, at
    absolute times, up to step k_max or a delta below DELTA_FLOOR.  When
    the initial delta exceeds delta0, a steering pre-phase first waits
    tau and then hops along a Riemann-coordinate chain toward u_star; its
    horizon is ``record.rows[0].time``.  A non-decreasing delta above 10
    DELTA_FLOOR is a contraction failure: ``record.failure`` states the
    first, and the caller acts on it.
    """
    u_star = np.asarray(u_star, dtype=float)
    tau = crossing_time(model, (phi.a, phi.b))
    record = ContractionRecord()
    steps = []
    pre_actions = []

    profile, t = phi, 0.0
    if max(phi.sup_distance(u_star), phi.total_variation()) > delta0:
        sim = Simulation(model, phi, eps0)
        sim.advance_to(tau)
        _steer(sim, phi.mean(), u_star, chain_step, tau, pre_actions)
        profile, t = sim.now.profile(), sim.time

    for k in range(k_max + 1):
        sup = profile.sup_distance(u_star)
        tv = profile.total_variation()
        delta = max(sup, tv)
        ratio = float("nan")
        if record.rows:
            prev = record.rows[-1].delta
            ratio = delta / prev ** 2 if prev > 0 else float("nan")
            if (not record.failure and prev <= delta0 and delta >= prev
                    and delta > 10 * DELTA_FLOOR):
                record.failure = (f"delta did not decrease at step {k}: "
                                  f"{prev:.3e} -> {delta:.3e}")
        record.rows.append(ContractionRow(k, t, sup, tv, delta, ratio))
        if k == k_max or delta < DELTA_FLOOR:
            break
        eps_k = max(eps0 * EPS_FACTOR ** k, 1e-11)
        step = stabilization_step(model, profile, u_star, eps_k,
                                  delta0=delta0, t0=t)
        steps.append(step)
        profile, t = step.snapshot.profile(), step.snapshot.time
    return StabilizeResult(record, steps, pre_actions, tau)
