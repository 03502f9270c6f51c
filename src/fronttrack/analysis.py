"""Quantitative diagnostics: positive-wave density decay, shock-strength
persistence, backward characteristics, and the shock census driving the
finite-time non-controllability experiment."""

import math
from dataclasses import dataclass

import numpy as np

from .curves import lax_curve
from .errors import DomainError
from .profiles import PiecewiseConstant
from .tracking import TIME_TIE, wave_measures

DEFAULT_CENSUS_FLOOR = 1e-6      # below this a jump counts as wave dust
DEFAULT_SIGN_FLOOR = 1e-11       # opposite-family output resolvable above this
PROBE_MARGIN = 0.05              # default boundary-layer exclusion, per side x2


def _default_probe(a, b):
    m = PROBE_MARGIN * (b - a)
    return (a + 2 * m, b - 2 * m)


# -- positive wave density ----------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    time: float
    family: int
    probe: tuple
    cell_edges: np.ndarray
    densities: np.ndarray
    max_density: float
    kappa_hat: float             # time * max density

    @property
    def total_mass(self):
        widths = np.diff(self.cell_edges)
        return float(np.sum(self.densities * widths))


def positive_wave_density(snapshot, family, cells=64, probe=None):
    """Bin the positive (rarefaction) atoms of one family on a uniform grid.

    Front-tracking profiles carry purely atomic wave measures, so the
    density bound becomes a binned-mass bound; shocks contribute nothing.
    """
    if probe is None:
        probe = _default_probe(snapshot.a, snapshot.b)
    lo, hi = probe
    edges = np.linspace(lo, hi, cells + 1)
    measure = wave_measures(snapshot)
    xs, sizes = measure.atoms(family, sign=+1)
    densities = np.zeros(cells)
    width = (hi - lo) / cells
    for x, s in zip(xs, sizes):
        if lo <= x < hi:
            densities[int((x - lo) / width)] += s / width
        elif x == hi:
            densities[-1] += s / width
    max_density = float(np.max(densities)) if cells else 0.0
    return DensityReport(float(snapshot.time), int(family), (lo, hi), edges,
                         densities, max_density,
                         float(snapshot.time) * max_density)


def density_series(sim, times, family, cells=64, probe=None):
    return [positive_wave_density(sim.snapshot_at(t), family, cells, probe)
            for t in times]


def kappa_trend(reports):
    """Least-squares slope of kappa_hat against time, with its standard
    error; a non-positive trend is the discrete decay statement."""
    t = np.array([r.time for r in reports])
    k = np.array([r.kappa_hat for r in reports])
    if len(t) < 3 or np.allclose(k, k[0]):
        return 0.0, 0.0
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, k, rcond=None)
    dof = max(len(t) - 2, 1)
    s2 = float(res[0]) / dof if len(res) else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


# -- shock lineage ------------------------------------------------------------


@dataclass
class ShockTrack:
    lineage: list                # front ids, oldest first
    samples: np.ndarray          # rows (t, x, |sigma|)
    min_ratio: float             # min over s<t of |sigma(t)| / |sigma(s)|
    merges: list                 # times where same-family fronts merged in
    fate: str                    # alive | exited | cancelled


def track_shock_strength(sim, front_id):
    """Follow one front through the interaction log.

    At each interaction the lineage continues through the outgoing wave of
    the same family (merges recorded); it ends when the front exits or no
    same-family wave comes out (cancellation, reported via ``fate``).
    """
    consumed = {}
    born = {}
    for rec in sim.records:
        for uid in rec.in_ids:
            consumed[uid] = rec
        for uid in rec.out_ids:
            born[uid] = rec

    if front_id in born:        # the record that created it
        rec = born[front_id]
        j = rec.out_ids.index(front_id)
        t0, x0, family, sigma0 = (rec.time, rec.x, rec.out_families[j],
                                  rec.out_sigmas[j])
    else:                       # an initial front
        first = sim.history[0]
        hit = np.flatnonzero(first.ids == front_id)
        if len(hit) == 0:
            raise KeyError(f"front {front_id} never appears in the history")
        j = hit[0]
        t0, x0, family, sigma0 = (first.time, first.xs[j], first.families[j],
                                  first.sigmas[j])
    lineage = [front_id]
    samples = [(t0, x0, abs(sigma0))]
    merges = []
    fate = "alive"
    cur = front_id
    while cur in consumed:
        rec = consumed[cur]
        if rec.kind in ("exit_a", "exit_b"):
            fate = "exited"
            samples.append((rec.time, rec.x, samples[-1][2]))
            break
        outs = [(uid, s) for uid, f, s in
                zip(rec.out_ids, rec.out_families, rec.out_sigmas)
                if f == family]
        same_in = [uid for uid, f in zip(rec.in_ids, rec.in_families)
                   if f == family]
        if len(same_in) > 1:
            merges.append(rec.time)
        if not outs:
            fate = "cancelled"
            samples.append((rec.time, rec.x, 0.0))
            break
        uid, sig = max(outs, key=lambda p: abs(p[1]))
        samples.append((rec.time, rec.x, abs(sig)))
        lineage.append(uid)
        cur = uid
    if fate == "alive":
        for j in np.flatnonzero(sim.now.ids == cur):     # at most one
            samples.append((sim.time, sim.now.xs[j], abs(sim.now.sigmas[j])))

    arr = np.asarray(samples)
    run_max = np.maximum.accumulate(arr[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = arr[:, 2] / run_max
    min_ratio = float(np.nanmin(ratios)) if len(ratios) else float("nan")
    return ShockTrack(lineage, arr, min_ratio, merges, fate)


def strongest_front(sim, family):
    """Id of the strongest front of a family at time 0."""
    snap = sim.snapshot_at(0.0)
    mask = snap.families == family
    if not np.any(mask):
        raise ValueError(f"no family-{family} fronts at t=0.0")
    idx = np.nonzero(mask)[0]
    return int(snap.ids[idx[np.argmax(np.abs(snap.sigmas[idx]))]])


# -- backward characteristics -------------------------------------------------


@dataclass(frozen=True)
class CharacteristicPath:
    family: int
    points: np.ndarray           # rows (t, x), descending in t
    exited: bool
    exit_point: tuple            # (t, x) when exited, else None

    def position_at(self, s):
        t = self.points[::-1, 0]
        x = self.points[::-1, 1]
        return float(np.interp(s, t, x))


def backward_characteristic(sim, family, t, x):
    """Trace the family-i characteristic through (t, x) back to time zero.

    The path is a polyline refracting at front crossings; front-tracking
    profiles have no centered rarefactions, so the backward trace is unique.
    Leaving [a, b] stops the trace and is reported on the result.
    """
    model = sim.model
    points = [(float(t), float(x))]
    t_cur, x_cur = float(t), float(x)
    exited = False
    exit_point = None

    k = sim.history_index(t_cur)
    while t_cur > TIME_TIE and not exited:
        snap = sim.history[k]
        t_lo = snap.time
        xs_now = snap.xs + snap.speeds * (t_cur - snap.time)
        cell = int(np.searchsorted(xs_now, x_cur, side="right"))
        while True:
            lam = model.eigen(snap.states[cell]).lam(family)
            s_best, j_cross = t_lo, None
            for j in (cell - 1, cell):
                if 0 <= j < snap.n_fronts:
                    denom = lam - snap.speeds[j]
                    if abs(denom) < 1e-13:
                        continue
                    s = (snap.xs[j] - snap.speeds[j] * snap.time
                         - x_cur + lam * t_cur) / denom
                    if t_lo + TIME_TIE < s < t_cur - TIME_TIE and s > s_best:
                        s_best, j_cross = s, j
            x_new = x_cur - lam * (t_cur - s_best)
            t_cur, x_cur = s_best, x_new
            points.append((t_cur, x_cur))
            if not (sim.a - 1e-12 <= x_cur <= sim.b + 1e-12):
                exited = True
                exit_point = (t_cur, x_cur)
                break
            if j_cross is None:
                break
            cell = j_cross if j_cross < cell else j_cross + 1
        k -= 1
        if k < 0:
            break
    return CharacteristicPath(int(family), np.asarray(points), exited,
                              exit_point)


@dataclass(frozen=True)
class SpreadReport:
    family: int
    t: float
    sample_times: np.ndarray
    ratios: np.ndarray           # (y(t)-x(t)) / (y(s)-x(s))
    max_ratio: float


def characteristic_spread(sim, family, x, y, t, n_samples=9):
    """Expansion ratio of two same-family backward characteristics.

    Requires both paths to stay inside the interval down to time zero.
    """
    if not x < y:
        raise ValueError("need x < y")
    px = backward_characteristic(sim, family, t, x)
    py = backward_characteristic(sim, family, t, y)
    for p in (px, py):
        if p.exited:
            raise DomainError(f"backward path exits the interval at {p.exit_point}")
    ts = np.linspace(0.0, t, n_samples + 1)[:-1]
    gap_t = y - x
    gaps = np.array([py.position_at(s) - px.position_at(s) for s in ts])
    if np.any(gaps <= 0):
        raise DomainError("same-family backward characteristics crossed")
    ratios = gap_t / gaps
    return SpreadReport(int(family), float(t), ts, ratios,
                        float(np.max(ratios)))


# -- shock census -------------------------------------------------------------


@dataclass
class CensusReport:
    time: float
    positions: dict              # family -> np.ndarray
    strengths: dict              # family -> np.ndarray (|sigma|)
    largest_gap: dict            # family -> float (within the probe)
    creation_count: int          # cumulative opposite-family shock creations
    creation_events: list        # [(t, x), ...] up to this time
    probe: tuple
    tv: float


def _same_family_shock_collisions(sim, family):
    """(record, opposite-family output strength) of every collision of two
    or more fronts that are all shocks of ``family``; the strength is 0.0
    when the collision emits no wave of the other family."""
    other = 2 if family == 1 else 1
    for rec in sim.records:
        if rec.kind != "collision" or len(rec.in_ids) < 2:
            continue
        if not all(f == family and k == "shock"
                   for f, k in zip(rec.in_families, rec.in_kinds)):
            continue
        out = [s for f, s in zip(rec.out_families, rec.out_sigmas) if f == other]
        yield rec, out[0] if out else 0.0


def creation_events(sim, floor=DEFAULT_SIGN_FLOOR, family=1):
    """Interactions where same-family shocks collide and emit a resolvable
    shock of the other family: strength below -floor."""
    return [(rec.time, rec.x)
            for rec, sig in _same_family_shock_collisions(sim, family)
            if sig < -floor]


def same_family_collision_compliance(sim, family=1,
                                     sign_floor=DEFAULT_SIGN_FLOOR):
    """Sign audit of pure same-family shock collisions.

    Returns (events, compliant, unresolved): every collision of family-i
    shocks must emit a strictly negative (shock) wave of the other family.
    An output is resolved when its magnitude exceeds the sign floor, the
    rule ``creation_events`` applies; outputs at or below the floor are
    counted unresolved rather than judged.
    """
    n_events = n_compliant = n_unresolved = 0
    for _rec, sig in _same_family_shock_collisions(sim, family):
        n_events += 1
        if abs(sig) <= sign_floor:
            n_unresolved += 1
        elif sig < 0:
            n_compliant += 1
    return n_events, n_compliant, n_unresolved


def shock_census(sim, times, probe=None, strength_floor=DEFAULT_CENSUS_FLOOR,
                 creation_floor=DEFAULT_SIGN_FLOOR):
    """Per-time census of shocks above the dust floor, with largest gaps in
    the probe interval and the cumulative opposite-family creation count."""
    if probe is None:
        probe = _default_probe(sim.a, sim.b)
    lo, hi = probe
    events = creation_events(sim, floor=creation_floor)
    reports = []
    for t in times:
        snap = sim.snapshot_at(t)
        positions, strengths, gaps = {}, {}, {}
        for family in range(1, sim.model.n + 1):
            mask = (snap.families == family) & (snap.sigmas <= -strength_floor)
            xs = snap.xs[mask]
            keep = (xs >= lo) & (xs <= hi)
            xs = np.sort(xs[keep])
            positions[family] = xs
            strengths[family] = np.abs(snap.sigmas[mask][keep])
            pts = np.concatenate(([lo], xs, [hi]))
            gaps[family] = float(np.max(np.diff(pts)))
        past = [e for e in events if e[0] <= t + TIME_TIE]
        reports.append(CensusReport(float(t), positions, strengths, gaps,
                                    len(past), past, probe, snap.tv()))
    return reports


# -- initial data constructions ----------------------------------------------


def _dyadic_positions(n, a, b):
    """First n dyadic points of (a, b), level by level, sorted by position.

    Largest gap between consecutive points (and to the interval ends) is at
    most (b - a) / ceil((n + 1) / 2).
    """
    out = []
    level = 0
    while len(out) < n:
        step = 2.0 ** -(level + 1)
        for k in range(2 ** level):
            out.append(((2 * k + 1) * step, level))
            if len(out) == n:
                break
        level += 1
    out.sort(key=lambda p: p[0])
    return [(a + frac * (b - a), lvl) for frac, lvl in out]


def dense_initial_data(model, n_waves, strength, interval, base_state=None,
                       family=1, level_decay=2.0):
    """Profile of n elementary waves of one family at dyadic positions.

    The signed strengths (in Riemann-coordinate units) decrease
    geometrically with the dyadic level of the position and sum to
    ``strength``: a negative total gives pure shocks with no rarefaction
    content, a positive one pure rarefactions.  Refining n keeps adding
    weaker waves in the remaining gaps.
    """
    if level_decay <= 1.0:
        raise ValueError("level_decay must exceed 1")
    a, b = interval
    base = np.asarray(base_state if base_state is not None
                      else model.ref_state, dtype=float)
    placed = _dyadic_positions(n_waves, a, b)
    weights = np.array([level_decay ** -lvl for _, lvl in placed])
    sigmas = strength * weights / float(np.sum(weights))
    states = [base]
    for s in sigmas:
        states.append(lax_curve(model, states[-1], family, float(s)).state)
    xs = np.array([x for x, _ in placed])
    return PiecewiseConstant(a, b, xs, np.vstack(states))
