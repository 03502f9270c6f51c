"""Event-driven front tracking on a bounded interval.

A Simulation carries a piecewise-constant profile between the absorbing
boundaries x = a and x = b as one Snapshot of columns: straight-line fronts,
sorted by position, exist only as its per-front columns, and front j
separates cells j and j + 1 of its cell states.  The next event is the
earliest adjacent-front collision or boundary crossing.  A collision poses
the Riemann problem between the cell states on either side of the colliding
fronts and solves it exactly; outgoing rarefactions are fanned into pieces
of strength at most eps_fronts, and fronts reaching a boundary leave without
reflection.  Everything the diagnostics need (interaction log, functional
history, snapshot history, boundary flux integrals) is accumulated as the
simulation advances.

The profile changes at four kinds of point only: initial jumps, collisions,
boundary exits and boundary injections.  Each replaces a run of fronts by
the waves of one Riemann solution (none for an exit) through one private
step, which splices the new snapshot, sets the new fronts' generations and,
for every kind but the initial fronts, logs the functionals and appends the
interaction record and the snapshot.
"""

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import SIGMA_NULL, CurvePoint, lax_curve, rarefaction_curve
from .errors import SOLVER_ERRORS, ContractViolationError, ConvergenceError
from .profiles import PiecewiseConstant
from .riemann import solve_riemann

TIME_TIE = 1e-12        # events closer than this are simultaneous
SPACE_TIE = 1e-9        # simultaneous events closer than this share a point
WRONG_FAMILY_TOL = 1e-8  # injected waves of the wrong side above this abort
MAX_INSTANT_EVENTS = 10000
MAX_EVENTS = 2_000_000
CALIBRATION_DRAWS_PER_SAMPLE = 100  # draws allowed per accepted sample
CALIBRATION_SIGMAS = (0.01, 0.1)    # range of the drawn |strengths|
CALIBRATION_BOX_MARGIN = 0.25       # box shrink factor, per side
Q_NOISE = 1e-12         # float noise of the recomputed potential Q
# numeric per-front columns of a Snapshot, in the order new fronts list them
_FRONT_COLUMNS = ("ids", "xs", "families", "sigmas", "speeds", "generations")


@dataclass(frozen=True)
class Snapshot:
    """Immutable piecewise-constant profile at a fixed time; front j
    separates cells j and j + 1 of ``states``."""

    model: object
    time: float
    a: float
    b: float
    ids: np.ndarray
    xs: np.ndarray
    families: np.ndarray
    sigmas: np.ndarray
    speeds: np.ndarray
    generations: np.ndarray
    kinds: tuple
    states: np.ndarray     # (n_fronts + 1, n)

    @property
    def n_fronts(self):
        return len(self.xs)

    def profile(self):
        return PiecewiseConstant(self.a, self.b, self.xs, self.states)

    def tv(self):
        if self.n_fronts == 0:
            return 0.0
        return float(np.sum(np.linalg.norm(np.diff(self.states, axis=0), axis=1)))

    def sup_distance(self, ref):
        ref = np.asarray(ref, dtype=float)
        return float(np.max(np.linalg.norm(self.states - ref[None, :], axis=1)))

    def compressive_pairs(self):
        """Indices of adjacent same-family approaching pairs that are not
        pure shock mergers; tracked as a diagnostic, never enforced."""
        out = []
        for j in range(self.n_fronts - 1):
            if self.families[j] != self.families[j + 1]:
                continue
            if self.speeds[j] <= self.speeds[j + 1]:
                continue
            if self.kinds[j] == "shock" and self.kinds[j + 1] == "shock":
                continue
            out.append(j)
        return out


@dataclass(frozen=True)
class Event:
    time: float
    x: float
    kind: str              # collision | exit_a | exit_b
    lo: int
    hi: int


@dataclass
class InteractionRecord:
    """One change of the profile: at ``time`` and point ``x`` an event of
    ``kind`` (collision | exit_a | exit_b | inject_a | inject_b, or error
    for a collision whose Riemann solve failed) replaced the incoming
    fronts (``in_ids``, ``in_families``, ``in_sigmas``, ``in_kinds``) by
    the outgoing ones (``out_*``, the same columns); ``dV`` and ``dQ`` are
    the changes of the Glimm functionals across it."""

    time: float
    x: float
    kind: str
    in_ids: list
    in_families: list
    in_sigmas: list
    in_kinds: list
    out_ids: list
    out_families: list
    out_sigmas: list
    out_kinds: list
    dV: float
    dQ: float


@dataclass(frozen=True)
class WaveMeasure:
    """Atomic wave measures of a snapshot, one atom per jump and family."""

    positions: dict        # family -> np.ndarray of x
    sizes: dict            # family -> np.ndarray of signed sigma

    def mass(self, family, sign=None):
        s = self.sizes.get(family)
        if s is None or len(s) == 0:
            return 0.0
        if sign is None:
            return float(np.sum(np.abs(s)))
        if sign > 0:
            return float(np.sum(s[s > 0]))
        return float(-np.sum(s[s < 0]))

    def atoms(self, family, sign=None):
        xs = self.positions.get(family, np.empty(0))
        ss = self.sizes.get(family, np.empty(0))
        if sign is None:
            return xs, ss
        mask = ss > 0 if sign > 0 else ss < 0
        return xs[mask], ss[mask]


class Simulation:
    """Front-tracking run over one model and interval.  Its profile is the
    Snapshot ``now``, which every event replaces by splicing its columns;
    arrays are never written in place, because ``history`` shares them."""

    def __init__(self, model, profile, eps_fronts):
        if eps_fronts <= 0:
            raise ValueError("eps_fronts must be positive")
        self.model = model
        self.a = float(profile.a)
        self.b = float(profile.b)
        self.eps = float(eps_fronts)
        self.records = []
        self.functional_history = []
        self.history = []
        self.dropped_mass = 0.0
        self.boundary_flux_integral = np.zeros((2, model.n))
        self._next_uid = 0
        self._event_count = 0
        self._instant_events = 0

        values = np.array(np.atleast_2d(profile.values), dtype=float)
        ints, floats = np.empty(0, dtype=int), np.empty(0)
        self.now = Snapshot(model, 0.0, self.a, self.b, ints, floats, ints,
                            floats, floats, ints, (), values[:1])
        for j, x in enumerate(profile.xs):
            k = self.now.n_fronts
            self._step(k, k, self.now.states[k],
                       solve_riemann(model, values[j], values[j + 1]).waves, x)
        self._log_functionals()
        self.history.append(self.now)

    @property
    def time(self):
        return self.now.time

    # -- bookkeeping -------------------------------------------------------

    def _uid(self):
        self._next_uid += 1
        return self._next_uid - 1

    def _log_functionals(self):
        V, Q, TV = self.glimm_functionals()
        self.functional_history.append((self.time, V, Q, TV))

    def _where(self):
        """Diagnostics of an engine contract violation."""
        return {"time": float(self.time), "events": self._event_count}

    def _incoming(self, lo, hi):
        """ids, families, sigmas and kinds of fronts lo..hi - 1."""
        s = self.now
        return [col[lo:hi].tolist() for col in (s.ids, s.families, s.sigmas)] \
            + [list(s.kinds[lo:hi])]

    def _step(self, lo, hi, left, waves, x, kind=None):
        """The one change of the profile: replace fronts lo..hi - 1 by the
        fronts that materialize ``waves`` at x, and cells lo..hi by ``left``
        and their right states; return the new fronts' columns.

        Rarefactions are fanned into pieces of strength at most eps, each
        moving at the characteristic speed of its left state, which the
        wave (first piece) or the curve point that made it carries.  A new
        front takes the least generation of the replaced fronts of its
        family, else one more than the least replaced generation, else 1.
        With a ``kind`` the event is recorded: the functionals are logged,
        and the record (dV, dQ from the last two rows: V and Q do not read
        positions, which alone move between events) and the new snapshot
        are appended.
        """
        s = self.now
        incoming = self._incoming(lo, hi)
        gens = s.generations[lo:hi].tolist()
        least = {}
        for fam, gen in zip(incoming[1], gens):
            least[fam] = min(gen, least.get(fam, gen))
        new = {name: [] for name in _FRONT_COLUMNS + ("kinds", "rights")}
        for wave in waves:
            if abs(wave.sigma) < SIGMA_NULL:
                self.dropped_mass += abs(wave.sigma)
                continue
            m = 1
            if wave.kind == "rarefaction" and wave.sigma > self.eps:
                m = math.ceil(wave.sigma / self.eps - 1e-9)
            piece = wave.sigma / m
            chain = [CurvePoint(wave.left, wave.speed_lo, 0.0)]
            for _ in range(m - 1):
                chain.append(rarefaction_curve(self.model, chain[-1].state,
                                               wave.family, piece))
            gen = least.get(wave.family, 1 + min(gens, default=0))
            for point, right in zip(chain, [p.state for p in chain[1:]]
                                    + [wave.right]):
                row = (self._uid(), x, wave.family, piece, point.speed, gen,
                       wave.kind, right)
                for name, val in zip(new, row):
                    new[name].append(val)

        def put(col, vals):
            return np.concatenate((col[:lo], np.asarray(vals, dtype=col.dtype),
                                   col[hi:]))

        self.now = replace(
            s, **{name: put(getattr(s, name), new[name]) for name in _FRONT_COLUMNS},
            kinds=s.kinds[:lo] + tuple(new["kinds"]) + s.kinds[hi:],
            states=np.concatenate((s.states[:lo], [left, *new["rights"]],
                                   s.states[hi + 1:])))
        if kind is not None:
            self._log_functionals()
            (_, V0, Q0, _), (_, V1, Q1, _) = self.functional_history[-2:]
            self.records.append(InteractionRecord(
                self.time, x, kind, *incoming, new["ids"], new["families"],
                new["sigmas"], new["kinds"], V1 - V0, Q1 - Q0))
            self.history.append(self.now)
        return new

    # -- views ---------------------------------------------------------------

    def trace(self, side):
        """Profile value adjacent to a boundary; no ghost cells."""
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        return self.now.states[0 if side == "a" else -1].copy()

    def glimm_functionals(self):
        """Total wave strength V, interaction potential Q, and profile TV.

        With s_j = |sigma_j| over the fronts in left-to-right order, a pair
        i < j approaches unless fam_i < fam_j or both are rarefactions of
        one family, so

            Q = sum_j s_j (sum_{i<j, fam_i >= fam_j} s_i
                           - rar_j sum_{i<j, fam_i = fam_j, rar_i} s_i),

        read off exclusive per-family prefix sums of s: O(k n) work for k
        fronts and n families.  TV is the snapshot's.
        """
        s = self.now
        k = s.n_fronts
        if k == 0:
            return 0.0, 0.0, 0.0
        sig = np.abs(s.sigmas)
        fam = s.families - 1
        rar = np.array([kind == "rarefaction" for kind in s.kinds])
        V = float(np.sum(sig))
        cols = np.arange(k)
        # own[g, j] = s_j if front j is of family g + 1; before[g, j] sums
        # own[g, i] over i < j, and at_or_above[g] sums before over g' >= g
        own = np.zeros((self.model.n, k))
        own[fam, cols] = sig
        before = np.zeros_like(own)
        np.cumsum(own[:, :-1], axis=1, out=before[:, 1:])
        rar_before = np.zeros_like(own)
        np.cumsum(own[:, :-1] * rar[:-1], axis=1, out=rar_before[:, 1:])
        at_or_above = np.cumsum(before[::-1], axis=0)[::-1]
        Q = float(np.sum(sig * (at_or_above[fam, cols]
                                - rar * rar_before[fam, cols])))
        return V, Q, s.tv()

    def history_index(self, t):
        """Index of the last history snapshot taken at or before t, within
        TIME_TIE; 0 when t precedes them all.  History times never
        decrease, so this is a bisection."""
        idx = bisect.bisect_right(self.history, t + TIME_TIE,
                                  key=lambda s: s.time)
        return max(idx - 1, 0)

    def snapshot_at(self, t):
        """Snapshot at any time covered by the history, positions advanced."""
        snap = self.history[self.history_index(t)]
        return replace(snap, time=t, xs=snap.xs + snap.speeds * (t - snap.time))

    # -- core loop -----------------------------------------------------------

    def next_event(self):
        """Earliest future collision or boundary crossing, ties merged.

        Candidates are the collisions of adjacent approaching fronts and the
        boundary exits of moving fronts.  Among the candidates within
        TIME_TIE of the earliest, the leftmost point wins, then collisions
        before exits, then the leftmost front.  A winning collision absorbs
        every candidate collision within SPACE_TIE of its point: the event
        spans all their fronts and takes the earliest of their times.
        """
        xs, sp = self.now.xs, self.now.speeds
        if len(xs) == 0:
            return None
        ds = sp[:-1] - sp[1:]
        cj = np.flatnonzero(ds > 1e-14)        # pair (j, j + 1) approaches
        dt = (xs[cj + 1] - xs[cj]) / ds[cj]
        dt = np.where(dt < 0.0, 0.0, dt)       # max(dt, 0.0), keeping -0.0
        ej = np.flatnonzero(np.abs(sp) > 1e-14)
        walls = np.where(sp[ej] < 0.0, self.a, self.b)
        edt = (walls - xs[ej]) / sp[ej]
        edt = np.where(edt < 0.0, 0.0, edt)
        times = np.concatenate((self.time + dt, self.time + edt))
        if len(times) == 0:
            return None
        points = np.concatenate((xs[cj] + sp[cj] * dt, walls))
        is_exit = np.arange(len(times)) >= len(cj)
        near = np.flatnonzero(times <= times.min() + TIME_TIE)
        # lexsort is stable: equal keys keep collisions, then exits, in
        # front order
        first = near[np.lexsort((is_exit[near], points[near]))[0]]
        if is_exit[first]:
            j = int(ej[first - len(cj)])
            kind = "exit_a" if sp[j] < 0.0 else "exit_b"
            return Event(times[first], points[first], kind, j, j)
        x0 = points[first]
        group = near[~is_exit[near] & (np.abs(points[near] - x0) <= SPACE_TIE)]
        return Event(times[group].min(), x0, "collision",
                     int(cj[group].min()), int(cj[group].max()) + 1)

    def _advance_positions(self, t):
        s = self.now
        dt = t - s.time
        if dt < 0:
            raise ValueError("cannot move backwards in time")
        if dt == 0.0:
            return
        self.boundary_flux_integral[0] += self.model.flux(s.states[0]) * dt
        self.boundary_flux_integral[1] += self.model.flux(s.states[-1]) * dt
        self.now = replace(s, time=t, xs=s.xs + s.speeds * dt)

    def _resolve(self, event):
        if event.time - self.time < TIME_TIE:
            self._instant_events += 1
            if self._instant_events > MAX_INSTANT_EVENTS:
                raise ContractViolationError(
                    f"event cascade did not advance time past t={self.time}",
                    self._where())
        else:
            self._instant_events = 0
        self._event_count += 1
        if self._event_count > MAX_EVENTS:
            raise ContractViolationError(
                f"exceeded MAX_EVENTS={MAX_EVENTS} at t={self.time}",
                self._where())
        self._advance_positions(event.time)

        s, lo, hi = self.now, event.lo, event.hi
        if event.kind != "collision":
            # the cell on the boundary side of the front leaves with it
            self._step(lo, lo + 1, s.states[lo + (event.kind == "exit_a")], (),
                       event.x, event.kind)
            return
        try:
            sol = solve_riemann(self.model, s.states[lo], s.states[hi + 1])
        except ConvergenceError:
            self.records.append(InteractionRecord(
                self.time, event.x, "error", *self._incoming(lo, hi + 1),
                [], [], [], [], 0.0, 0.0))
            raise
        speeds = self._step(lo, hi + 1, s.states[lo], sol.waves, event.x,
                            "collision")["speeds"]
        if any(s2 - s1 < -1e-9 for s1, s2 in zip(speeds, speeds[1:])):
            raise ContractViolationError(
                f"outgoing wave speeds not ordered at t={self.time}",
                self._where())

    def advance_to(self, t):
        """Resolve every event up to time t and move fronts there."""
        if t < self.time:
            raise ValueError("cannot advance into the past")
        while True:
            ev = self.next_event()
            if ev is None or ev.time > t:
                break
            self._resolve(ev)
        self._advance_positions(t)
        return self.now

    # -- boundaries ------------------------------------------------------------

    def inject_boundary_riemann(self, side, outer_state):
        """Impose an outer state at a boundary and let the admissible
        families of its Riemann problem with the trace enter the domain.

        At x = b only families <= p may enter, at x = a only families
        >= p+1; a wave of the wrong side above tolerance aborts the run.
        Returns the list of injected front ids.
        """
        at_b = side == "b"
        trace = self.trace(side)
        outer = np.asarray(outer_state, dtype=float)
        sol = solve_riemann(self.model, *((trace, outer) if at_b else (outer, trace)))
        enters = [(w.family <= self.model.p) == at_b for w in sol.waves]
        wrong = [w for w, e in zip(sol.waves, enters)
                 if not e and abs(w.sigma) > WRONG_FAMILY_TOL]
        if wrong:
            raise ContractViolationError(
                f"injection at {side} would emit families "
                f"{[w.family for w in wrong]} into the wrong side",
                {"sigmas": [w.sigma for w in wrong]})
        # at x = a the outer state becomes cell 0
        k = self.now.n_fronts if at_b else 0
        return self._step(k, k, trace if at_b else outer,
                          [w for w, e in zip(sol.waves, enters) if e],
                          self.b if at_b else self.a, f"inject_{side}")["ids"]


def wave_measures(snapshot):
    """Per-family atomic wave measures of a snapshot: every front is one
    elementary wave, so its signed strength is an atom at its position."""
    families = range(1, snapshot.model.n + 1)
    return WaveMeasure(
        {i: snapshot.xs[snapshot.families == i] for i in families},
        {i: snapshot.sigmas[snapshot.families == i] for i in families})


def check_upsilon(sim, c0, tol):
    """Verify V + c0 Q decreases across every collision, within tolerance.

    Returns (ok, worst_increment, n_checked).  Q must strictly decrease at
    every approaching-wave collision; the strictness is asserted above
    Q_NOISE because pair products of dust-sized waves fall below the
    float noise of the potential's recomputation.
    """
    worst = -np.inf
    n_checked = 0
    q_ok = True
    for rec in sim.records:
        if rec.kind != "collision":
            continue
        n_checked += 1
        worst = max(worst, rec.dV + c0 * rec.dQ)
        if rec.dQ > Q_NOISE:
            q_ok = False
    if n_checked == 0:
        return True, 0.0, 0
    return (worst <= tol) and q_ok, worst, n_checked


def calibrate_interaction_constant(model, n_samples=200, seed=0):
    """Empirical constant c0 making V + c0 Q non-increasing for this model.

    Samples random approaching two-wave interactions in the shrunken working
    box and returns twice the worst observed production-to-potential ratio.
    Raises ContractViolationError when fewer than n_samples of
    CALIBRATION_DRAWS_PER_SAMPLE * n_samples draws are admissible.

    c0 is computed once per model, keyed by (n_samples, seed), and reused:
    models are immutable and the draws are seeded.  A calibration that
    raises stores nothing, so it raises again on the next call.
    """
    return model._fact(("c0", n_samples, seed),
                       lambda: _calibrate(model, n_samples, seed))


def _calibrate(model, n_samples, seed):
    rng = np.random.default_rng(seed)
    inner = model.box.shrunk(CALIBRATION_BOX_MARGIN)
    lo, hi = CALIBRATION_SIGMAS
    worst = 0.0
    tried = draws = 0
    while tried < n_samples:
        if draws == CALIBRATION_DRAWS_PER_SAMPLE * n_samples:
            raise ContractViolationError(
                f"interaction-constant calibration accepted {tried} of {draws} "
                f"draws, short of {n_samples} samples: the working box shrunk "
                f"by {CALIBRATION_BOX_MARGIN} holds too few admissible states",
                {"accepted": tried, "attempted": draws})
        draws += 1
        u0 = rng.uniform(inner.lows, inner.highs)
        if not model.in_domain(u0):
            continue
        fa = rng.integers(1, model.n + 1)
        fb = rng.integers(1, fa + 1)   # left family >= right family: approaching
        sa = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
        sb = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
        if fa == fb and sa > 0 and sb > 0:
            sb = -sb
        try:
            um = lax_curve(model, u0, int(fa), sa).state
            ur = lax_curve(model, um, int(fb), sb).state
            sol = solve_riemann(model, u0, ur)
        except SOLVER_ERRORS:
            continue
        tried += 1
        dV = float(np.sum(np.abs(sol.sigmas))) - (abs(sa) + abs(sb))
        q_in = abs(sa * sb)
        if q_in > 1e-14 and dV > 0:
            worst = max(worst, dV / q_in)
    return 2.0 * worst if worst > 0 else 1.0
