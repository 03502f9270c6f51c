"""Event-driven front tracking on a bounded interval.

A Simulation carries a piecewise-constant profile between the absorbing
boundaries x = a and x = b.  Straight-line fronts are born once: a new
front writes its birth point and time, family, strength, speed,
generation, kind and right state to an append-only front table, and stays
there.  The live profile is the left-to-right list of live front ids plus
the state of cell 0: front j separates cells j and j + 1, and cell j + 1 is
the right state of front j.  The live ids are one int32 array, spliced by
every change of the profile.  A front sits at x_birth + speed (t - t_birth),
so no event moves the others.

The next event is the earliest adjacent-front collision or boundary
crossing.  Candidate times wait in a heap with lazy deletion (Holden &
Risebro 2015, ch. 2): a change of the profile queues only the pairs and
fronts it creates, and an entry whose fronts are no longer live and
adjacent is dropped when it surfaces.  A collision poses the Riemann
problem between the cell states on either side of the colliding fronts and
solves it exactly; outgoing rarefactions are fanned into pieces of strength
at most eps_fronts, and fronts reaching a boundary leave without
reflection.

The profile changes at four kinds of point only: initial jumps, collisions,
boundary exits and boundary injections.  Each replaces a run of fronts by
the waves of one Riemann solution (none for an exit) through one private
step, which splices the live ids, writes the new fronts to the table and
queues their candidates and, for every kind but the initial fronts,
appends the interaction record and logs the event as its splice: its time,
the Glimm functionals, cell 0, the first index lo of the splice and the
index of its record, which names the fronts that left and came in.  The
table is the one record of a front: an interaction record names its fronts
by id, and ``fronts`` shows the table's columns.  Snapshots are rebuilt
from the table and the log on access: ``now``, every entry of ``history``
and ``snapshot_at``.  A past profile's live ids are replayed from the
nearest checkpoint of the live ids, which the log stores whenever the ids
spliced since the last one outnumber the live ones, so the log holds
O(events) ids.

The same step keeps the Glimm functionals of the profile from the splice
alone: the total strength V and the total variation TV move by the
strengths and the jumps of the cells it replaces, and pairs of untouched
fronts keep their contribution to the interaction potential Q, so Q
changes only through the pairs that involve a replaced or a new front
(Bressan 2000, ch. 7).
"""

import bisect
import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .curves import CurvePoint, lax_curve, rarefaction_curve
from .errors import SOLVER_ERRORS, ContractViolationError, ConvergenceError
from .profiles import PiecewiseConstant, sup_distance, total_variation
from .riemann import solve_riemann, split_boundary_pair, split_boundary_pair_reverse

TIME_TIE = 1e-12        # events closer than this are simultaneous
SPACE_TIE = 1e-9        # simultaneous events closer than this share a point
MAX_INSTANT_EVENTS = 10000
MAX_EVENTS = 2_000_000
CALIBRATION_SAMPLES = 200           # accepted interactions per calibration
CALIBRATION_SEED = 0                # seed of the calibration draws
CALIBRATION_DRAWS_PER_SAMPLE = 100  # draws allowed per accepted sample
CALIBRATION_SIGMAS = (0.01, 0.1)    # range of the drawn |strengths|
CALIBRATION_BOX_MARGIN = 0.25       # box shrink factor, per side
Q_NOISE = 1e-12         # strength^2: float noise of the potential's update dQ
# A time t queued at one instant and the same time evaluated later differ
# by roundoff of at most about 3e-15 (|a| + |b|) / closing speed + 5e-16 t;
# its heap key is t less KEY_SLACK times the same two terms.
KEY_SLACK = 1e-14
# columns of the front table, indexed by front id: birth point and time,
# then speed, family, strength, kind, generation, the potential's bin
# family - 1 + n is_rarefaction, and right state
_TABLE = (("x0", float), ("t0", float), ("speeds", float), ("families", int),
          ("sigmas", float), ("kinds", object), ("generations", int),
          ("keys", int), ("rights", float))


@dataclass(frozen=True)
class Snapshot:
    """Immutable piecewise-constant profile at a fixed time; front j
    separates cells j and j + 1 of ``states``, and ``q`` is the interaction
    potential Q of its fronts."""

    time: float
    a: float
    b: float
    ids: np.ndarray
    xs: np.ndarray
    families: np.ndarray
    sigmas: np.ndarray
    speeds: np.ndarray
    generations: np.ndarray
    kinds: np.ndarray      # object dtype: shock | rarefaction | contact
    states: np.ndarray     # (n_fronts + 1, n)
    q: float

    @property
    def n_fronts(self):
        return len(self.xs)

    def profile(self):
        """The profile; a front roundoff crossed joins the one before it."""
        return PiecewiseConstant(self.a, self.b, np.maximum.accumulate(self.xs),
                                 self.states)

    def tv(self):
        return total_variation(self.states)

    def sup_distance(self, ref):
        return sup_distance(self.states, ref)


@dataclass(frozen=True)
class Event:
    time: float
    x: float
    kind: str              # collision | exit_a | exit_b
    lo: int
    hi: int


@dataclass(slots=True)
class InteractionRecord:
    """One change of the profile: at ``time`` and point ``x`` an event of
    ``kind`` (collision | exit_a | exit_b | inject_a | inject_b, or error
    for a collision whose Riemann solve failed) replaced the fronts
    ``in_ids`` by the fronts ``out_ids``, whose columns are in the front
    table (``Simulation.fronts``); ``dV`` and ``dQ`` are the changes of the
    Glimm functionals across it."""

    time: float
    x: float
    kind: str
    in_ids: list
    out_ids: list
    dV: float
    dQ: float


class _History(Sequence):
    """Read-only sequence of a run's profiles: the snapshot of time 0 and
    of every recorded event, each rebuilt from the front table and the
    event log when it is read.  An entry replays the log's splices from the
    nearest checkpoint before it; a slice and iteration replay once and
    build the snapshots they return, no others."""

    def __init__(self, sim):
        self._sim = sim

    def __len__(self):
        return len(self._sim._log)

    def __getitem__(self, k):
        n = len(self)
        if isinstance(k, slice):
            wanted = range(*k.indices(n))
            if wanted.step > 0:
                return list(self._snapshots(wanted))
            return list(self._snapshots(wanted[::-1]))[::-1]
        k = operator.index(k)
        if not -n <= k < n:
            raise IndexError("history index out of range")
        return next(self._snapshots(range(k % n, k % n + 1)))

    def __iter__(self):
        return self._snapshots(range(len(self)))

    def _snapshots(self, wanted):
        for (t, q, _, _, cell0, _, _), ids in self._sim._replay(wanted):
            yield self._sim._snapshot(t, q, cell0, ids)


class Simulation:
    """Front-tracking run over one model and interval.

    The fronts live in an append-only table, and the profile is the int32
    array of live front ids plus cell 0, spliced by every event; no event
    copies the profile, and an event's work on V, Q and TV and its log
    entry grow with its splice.  ``now`` is the profile at ``time`` as a
    Snapshot.  ``history`` is a read-only view of the snapshots of time 0
    and of every recorded event, each rebuilt on access by replaying the
    event log's splices, ``records`` holds the events' interaction
    records, which name fronts by id, and ``fronts`` shows the front table.
    """

    def __init__(self, model, profile, eps_fronts):
        if not eps_fronts > 0:
            raise ValueError("eps_fronts must be positive")
        self.model = model
        self.a = float(profile.a)
        self.b = float(profile.b)
        self.eps = float(eps_fronts)
        self.time = 0.0
        self.records = []
        self.dropped_mass = 0.0
        self.boundary_flux_integral = np.zeros((2, model.n))
        self._event_count = 0
        self._instant_events = 0
        self._table = {name: np.empty((64, model.n) if name == "rights" else 64,
                                      dtype) for name, dtype in _TABLE}
        self._n_born = 0
        self._ids = np.empty(0, np.int32)  # live front ids, left to right
        self._right_of = {}      # live front id -> id of its right neighbour
        self._queue = []         # heap of (key, i, j): pair i, j or exit i, i
        # per snapshot (time, Q, V, TV, cell 0, lo, record index): an event
        # spliced its record's out_ids into the live ids in place of its
        # in_ids, from index lo; time 0 has no record (index -1)
        self._log = []
        # (log index, live ids after that entry): time 0, and then an entry
        # once the ids spliced since the last checkpoint outnumber the live
        # ones; a spliced array is never written, so it is stored as it is
        self._checkpoints = []
        self._spliced = 0        # ids spliced since the last checkpoint
        self._q = self._v = self._tv = 0.0   # Q, V and TV of the live fronts
        self._now = None
        self._xscale = abs(self.a) + abs(self.b)

        values = np.array(np.atleast_2d(profile.values), dtype=float)
        self._cell0 = values[0]
        for j, x in enumerate(profile.xs):
            k = len(self._ids)
            self._step(k, k, self._cell(k), self._carried(
                solve_riemann(model, values[j], values[j + 1])), x)
        self._log.append((self.time, self._q, self._v, self._tv, self._cell0,
                          0, -1))
        self._checkpoints.append((0, self._ids))

    @property
    def now(self):
        """The profile at ``time`` as a Snapshot, built on first read and
        kept until the profile or the clock changes."""
        if self._now is None:
            self._now = self._snapshot(self.time, self._q, self._cell0, self._ids)
        return self._now

    @property
    def history(self):
        return _History(self)

    @property
    def fronts(self):
        """The front table: read-only views of its columns (birth point x0
        and time t0, speeds, families, sigmas, kinds, generations, keys and
        right states) over the ids 0 .. n_born - 1."""
        views = {name: col[:self._n_born] for name, col in self._table.items()}
        for view in views.values():
            view.flags.writeable = False
        return views

    @property
    def functional_history(self):
        """(t, V, Q, TV) of every history snapshot, read from the event log:
        the running values, within roundoff of the sums over a snapshot."""
        return [(t, v, q, tv) for t, q, v, tv, *_ in self._log]

    # -- bookkeeping -------------------------------------------------------

    def _where(self):
        """Diagnostics of an engine contract violation."""
        return {"time": float(self.time), "events": self._event_count}

    def _replay(self, wanted):
        """(log entry, live ids) of the log entries of the ascending range
        ``wanted``.  The ids are one list, spliced forward from the last
        checkpoint at or before its first entry, so each is read before the
        next is drawn."""
        if not wanted:
            return
        log, records = self._log, self.records
        m, ids = self._checkpoints[bisect.bisect_right(
            self._checkpoints, wanted[0], key=lambda c: c[0]) - 1]
        ids = ids.tolist()
        for k in range(m, wanted[-1] + 1):
            entry = log[k]
            if k > m:
                lo, rec = entry[5], records[entry[6]]
                ids[lo:lo + len(rec.in_ids)] = rec.out_ids
            if k in wanted:
                yield entry, ids

    def _snapshot(self, t, q, cell0, order):
        """The profile of the live ids ``order`` and cell 0 at time t."""
        table = self._table
        ids = np.array(order, dtype=int)
        speeds = table["speeds"][ids]
        return Snapshot(t, self.a, self.b, ids,
                        table["x0"][ids] + speeds * (t - table["t0"][ids]),
                        table["families"][ids], table["sigmas"][ids], speeds,
                        table["generations"][ids], table["kinds"][ids],
                        np.concatenate((cell0[None], table["rights"][ids])), q)

    def _carried(self, sol):
        """The waves of the Riemann solution sol, to become fronts; each
        strength of sol none carries adds to ``dropped_mass``."""
        carried = {w.family for w in sol.waves}
        self.dropped_mass += sum(abs(s) for f, s in
                                 enumerate(sol.sigmas.tolist(), 1)
                                 if f not in carried)
        return sol.waves

    def _cell(self, j):
        """State of cell j of the live profile."""
        return self._cell0 if j == 0 else self._table["rights"][self._ids.item(j - 1)]

    def _born(self, x, speed, family, sigma, kind, generation, right):
        """Write a new front to the table at the present time; its id."""
        uid, table = self._n_born, self._table
        if uid == len(table["x0"]):
            for name, col in table.items():
                table[name] = np.concatenate((col, np.empty_like(col)))
        key = family - 1 + self.model.n * (kind == "rarefaction")
        for col, val in zip(table.values(), (x, self.time, speed, family, sigma,
                                             kind, generation, key, right)):
            col[uid] = val
        self._n_born += 1
        return uid

    def _step(self, lo, hi, left, waves, x, kind=None):
        """The one change of the profile: replace fronts lo..hi - 1 by the
        fronts that materialize ``waves`` at x, and cells lo..hi by ``left``
        and their right states; return the new fronts' ids and speeds.
        Every cell but cell 0 is the right state of the front left of it, so
        ``left`` is taken only when lo is 0.

        Rarefactions are fanned into pieces of strength at most eps, each
        moving at the characteristic speed of its left state, which the
        wave (first piece) or the curve point that made it carries.  A new
        front takes the least generation of the replaced fronts of its
        family, else one more than the least replaced generation, else 1.
        V, TV and the potential Q change by the change of the splice (see
        ``_potential_change``), for every kind, the initial fronts too: TV by
        the jumps between the cells lo..hi + 1 it replaces, which become
        cells lo..end + 1 (hi + 1 and end + 1 capped at the last cell).  With
        a ``kind`` the event is recorded: the record (dV the change of V
        across the splice, dQ that of Q) is appended and the event logged.
        """
        ids, table = self._ids, self._table
        gone = ids[lo:hi].tolist()
        # the replaced fronts' keys, strengths, generations and families,
        # read by id: a splice is short
        *was, gens, fams = ([table[name].item(uid) for uid in gone]
                            for name in ("keys", "sigmas", "generations",
                                         "families"))
        # cells lo..hi + 1, as lists of floats
        cells = table["rights"].take(ids[max(lo - 1, 0):hi + 1], 0).tolist()
        if lo == 0:
            cells.insert(0, self._cell0.tolist())
        kept = cells[-1:] if hi < len(ids) else []
        least = {}
        for fam, gen in zip(fams, gens):
            least[fam] = min(gen, least.get(fam, gen))
        first, speeds = self._n_born, []
        for wave in waves:
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
                self._born(x, point.speed, wave.family, piece, wave.kind, gen,
                           right)
                speeds.append(point.speed)

        new = list(range(first, self._n_born))
        ids = self._ids = np.concatenate(
            (ids[:lo], np.arange(first, self._n_born, dtype=np.int32), ids[hi:]))
        if lo == 0:
            self._cell0 = np.array(left, dtype=float)
        end = lo + len(new)
        # relink and queue the new fronts with their neighbours
        for uid in gone:
            del self._right_of[uid]
        chain = ids[max(lo - 1, 0):end + 1].tolist()
        if end == len(ids):
            chain.append(None)
        for i, j in zip(chain, chain[1:]):
            self._right_of[i] = j
            if j is not None:
                self._push(i, j)
        for uid in new:
            self._push(uid, uid)
        # a live front has at most two live entries, its exit and its pair
        # with the right neighbour: past four per front, drop the stale ones
        if len(self._queue) > 4 * len(ids) + 64:
            self._queue = [e for e in self._queue if self._queued(*e[1:])]
            heapq.heapify(self._queue)

        out = [table[name][first:self._n_born].tolist()
               for name in ("keys", "sigmas")]
        dQ = self._potential_change(ids, lo, end, was, out)
        dV = sum(map(abs, out[1])) - sum(map(abs, was[1]))
        self._q += dQ
        if len(ids):
            self._v += dV
            self._tv += (_tv([self._cell0.tolist() if lo == 0 else cells[0]]
                             + table["rights"][first:self._n_born].tolist()
                             + kept) - _tv(cells))
        else:                  # no roundoff outlives the last front
            self._v = self._tv = 0.0
        self._now = None
        if kind is not None:
            self.records.append(InteractionRecord(self.time, x, kind, gone, new,
                                                  dV, dQ))
            self._log.append((self.time, self._q, self._v, self._tv,
                              self._cell0, lo, len(self.records) - 1))
            self._spliced += len(gone) + len(new)
            if self._spliced > len(ids):
                self._checkpoints.append((len(self._log) - 1, ids))
                self._spliced = 0
        return new, speeds

    def _potential_change(self, ids, lo, end, was, out):
        """Change of the interaction potential Q when the fronts of keys and
        strengths ``was`` give way to those of ``out``, which are fronts
        lo..end - 1 of the live ids ``ids``.

        With s_j = |sigma_j| over the fronts in left-to-right order, a pair
        i < j approaches unless fam_i < fam_j or both are rarefactions of
        one family, and Q sums s_i s_j over the approaching pairs.  The
        untouched fronts left of lo and from end on enter as per-family
        strength sums, of all fronts and of rarefactions, binned by their
        key family - 1 + n is_rarefaction."""
        n, table = self.model.n, self._table
        keys, strengths = table["keys"].take(ids), np.abs(table["sigmas"].take(ids))
        sides = []
        for part in (slice(0, lo), slice(end, None)):
            sums = np.bincount(keys[part], strengths[part], 2 * n).tolist()
            sides.append(([s + r for s, r in zip(sums, sums[n:])], sums[n:]))
        return _potential(n, *out, *sides) - _potential(n, *was, *sides)

    # -- views ---------------------------------------------------------------

    def trace(self, side):
        """Profile value adjacent to a boundary; no ghost cells."""
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        return self._cell(0 if side == "a" else len(self._ids)).copy()

    def snapshot_at(self, t):
        """The profile after the last event at or before t (within
        TIME_TIE), found by bisection of the event log and replayed from the
        nearest checkpoint, with positions at t.  The log holds no profile
        outside [0, time + TIME_TIE]: such a t raises ValueError."""
        if not 0.0 <= t <= self.time + TIME_TIE:
            raise ValueError(f"no snapshot at t={t}: the simulation covers "
                             f"[0, {self.time}]")
        k = bisect.bisect_right(self._log, t + TIME_TIE, key=lambda e: e[0]) - 1
        (_, q, _, _, cell0, _, _), ids = next(self._replay(range(k, k + 1)))
        return self._snapshot(t, q, cell0, ids)

    # -- core loop -----------------------------------------------------------

    def _candidate(self, i, j):
        """(time, point, heap key) of the collision of live adjacent fronts
        i < j, or of the boundary exit of front i when j == i, from the
        present positions; None when they do not approach (it does not
        move).  The key is the time less its roundoff bound KEY_SLACK."""
        table, t = self._table, self.time
        x0, t0, speeds = table["x0"], table["t0"], table["speeds"]
        si = speeds.item(i)
        xi = x0.item(i) + si * (t - t0.item(i))
        if i == j:
            if abs(si) <= 1e-14:
                return None
            point = self.a if si < 0.0 else self.b
            closing = abs(si)
            dt = (point - xi) / si
        else:
            sj = speeds.item(j)
            closing = si - sj
            if not closing > 1e-14:
                return None
            dt = (x0.item(j) + sj * (t - t0.item(j)) - xi) / closing
        if dt < 0.0:           # max(dt, 0.0), keeping -0.0
            dt = 0.0
        if i != j:
            point = xi + si * dt
        time = t + dt
        return time, point, time - KEY_SLACK * (self._xscale / closing + time)

    def _queued(self, i, j):
        """Whether a queue entry of fronts i and j is a live candidate:
        front i is live, and j is i or its right neighbour."""
        return i in self._right_of and (i == j or self._right_of[i] == j)

    def _push(self, i, j):
        cand = self._candidate(i, j)
        if cand is not None:
            heapq.heappush(self._queue, (cand[2], i, j))

    def next_event(self):
        """Earliest future collision or boundary crossing, ties merged.

        Candidates are the collisions of adjacent approaching fronts and the
        boundary exits of moving fronts.  Among the candidates within
        TIME_TIE of the earliest, the leftmost point wins, then collisions
        before exits, then the leftmost front.  A winning collision absorbs
        every candidate collision within SPACE_TIE of its point: the event
        spans all their fronts and takes the earliest of their times.

        The candidates come from the heap: every live entry keyed within
        TIME_TIE of the earliest time met so far is popped and its time and
        point computed again from the present positions, which takes in
        every candidate of the rule, because a key is never above its time.
        All of them are pushed back; the winners go stale when the event
        removes their fronts.  A front's index in the live ids is looked up
        only for the fronts of the event: the exits at the winning point, or
        the collisions the winner absorbs.
        """
        queue = self._queue
        found = {}
        best = math.inf
        while queue and queue[0][0] <= best + TIME_TIE:
            _, i, j = heapq.heappop(queue)
            if (i, j) not in found and self._queued(i, j):
                found[i, j] = self._candidate(i, j)
                best = min(best, found[i, j][0])
        for (i, j), (_, _, key) in found.items():
            heapq.heappush(queue, (key, i, j))
        if not found:
            return None
        ids = self._ids
        index = lambda i: int((ids == i).argmax())  # noqa: E731
        near = [(point, i == j, i, time)
                for (i, j), (time, point, _) in found.items()
                if time <= best + TIME_TIE]
        x0, is_exit, _, _ = min(near)
        if is_exit:            # the leftmost of the exits at x0 wins
            lo, i, time = min((index(i), i, time)
                              for point, ex, i, time in near
                              if ex and point == x0)
            kind = "exit_a" if self._table["speeds"].item(i) < 0.0 else "exit_b"
            return Event(time, x0, kind, lo, lo)
        group = sorted((index(i), time) for point, ex, i, time in near
                       if not ex and abs(point - x0) <= SPACE_TIE)
        return Event(min(time for _, time in group), x0, "collision",
                     group[0][0], group[-1][0] + 1)

    def _advance(self, t):
        """Move the clock to t, adding the boundary fluxes over the wait."""
        dt = t - self.time
        if dt < 0:
            raise ValueError("cannot move backwards in time")
        if dt == 0.0:
            return
        self.boundary_flux_integral[0] += self.model.flux(self._cell(0)) * dt
        self.boundary_flux_integral[1] += (
            self.model.flux(self._cell(len(self._ids))) * dt)
        self.time = t
        self._now = None

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
        self._advance(event.time)

        lo, hi = event.lo, event.hi
        if event.kind != "collision":
            # the cell on the boundary side of the front leaves with it
            self._step(lo, lo + 1, self._cell(lo + (event.kind == "exit_a")), (),
                       event.x, event.kind)
            return
        ul = self._cell(lo)
        try:
            sol = solve_riemann(self.model, ul, self._cell(hi + 1))
        except ConvergenceError:
            self.records.append(InteractionRecord(
                self.time, event.x, "error", self._ids[lo:hi + 1].tolist(), [],
                0.0, 0.0))
            raise
        _, speeds = self._step(lo, hi + 1, ul, self._carried(sol), event.x,
                               "collision")
        # ordered up to a slack of 1e-9, in speed units
        if any(s2 - s1 < -1e-9 for s1, s2 in zip(speeds, speeds[1:])):
            raise ContractViolationError(
                f"outgoing wave speeds not ordered at t={self.time}",
                self._where())

    def advance_to(self, t):
        """Resolve every event up to time t and move the clock there."""
        if t < self.time:
            raise ValueError("cannot advance into the past")
        while True:
            ev = self.next_event()
            if ev is None or ev.time > t:
                break
            self._resolve(ev)
        self._advance(t)
        return self.now

    # -- boundaries ------------------------------------------------------------

    def inject_boundary_riemann(self, side, target):
        """Inject the entering waves of the split of the trace at a boundary
        toward ``target``: families <= p at x = b (``split_boundary_pair``),
        >= p+1 at x = a (``split_boundary_pair_reverse``), where the split's
        state becomes cell 0.  Returns the injected front ids and that
        state, the outer state."""
        at_b = side == "b"
        trace = self.trace(side)
        split = (split_boundary_pair if at_b else split_boundary_pair_reverse)(
            self.model, trace, target)
        k = len(self._ids) if at_b else 0
        new, _ = self._step(k, k, trace if at_b else split.state, split.waves,
                            self.b if at_b else self.a, f"inject_{side}")
        return new, split.state


def _tv(cells):
    """Sum of the norms of the jumps between consecutive cells, each a list
    of floats."""
    return sum(map(math.dist, cells, cells[1:]))


def _potential(n, keys, sigmas, left, right):
    """Q of the pairs that involve the fronts listed left to right, with
    each other and with the fronts outside, whose per-family strength sums
    (all fronts, rarefactions) on each side are ``left`` and ``right``.  A
    front meets the list's earlier fronts as part of ``left``.  A front's
    key is family - 1 + n is_rarefaction, for n families."""
    total, rars = list(left[0]), list(left[1])
    right_total, right_rars = right
    q = 0.0
    for key, sigma in zip(keys, sigmas):
        f, s, rar = key % n + 1, abs(sigma), key >= n
        q += s * (sum(total[f - 1:]) + sum(right_total[:f])
                  - rar * (rars[f - 1] + right_rars[f - 1]))
        total[f - 1] += s
        if rar:
            rars[f - 1] += s
    return q


def check_upsilon(sim, c0, tol):
    """Verify V + c0 Q decreases across every collision, within tolerance.

    Returns (ok, worst_increment, n_checked).  Q must strictly decrease at
    every approaching-wave collision; the strictness is asserted above
    Q_NOISE because pair products of dust-sized waves fall below the
    float noise of the local update dQ, a difference of two potentials of
    size |sigma| V (the replaced and the new fronts against the untouched
    ones).
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


def calibrate_interaction_constant(model):
    """Empirical constant c0 making V + c0 Q non-increasing for this model.

    Samples CALIBRATION_SAMPLES random approaching two-wave interactions in
    the shrunken working box, drawn from CALIBRATION_SEED, and returns twice
    the worst observed production-to-potential ratio.  Raises
    ContractViolationError when fewer than CALIBRATION_SAMPLES of
    CALIBRATION_DRAWS_PER_SAMPLE * CALIBRATION_SAMPLES draws are admissible.

    c0 is computed once per model and reused: models are immutable and the
    draws are seeded.  A calibration that raises stores nothing, so it
    raises again on the next call.
    """
    return model._fact(("c0",), lambda: _calibrate(model))


def _calibrate(model):
    rng = np.random.default_rng(CALIBRATION_SEED)
    inner = model.box.shrunk(CALIBRATION_BOX_MARGIN)
    lo, hi = CALIBRATION_SIGMAS
    worst = 0.0
    tried = draws = 0
    while tried < CALIBRATION_SAMPLES:
        if draws == CALIBRATION_DRAWS_PER_SAMPLE * CALIBRATION_SAMPLES:
            raise ContractViolationError(
                f"interaction-constant calibration accepted {tried} of {draws} "
                f"draws, short of {CALIBRATION_SAMPLES} samples: the working "
                f"box shrunk by {CALIBRATION_BOX_MARGIN} holds too few "
                f"admissible states",
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
