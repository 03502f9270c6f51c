"""Quantitative diagnostics: positive-wave density decay, shock-strength
persistence, and the shock census driving the finite-time
non-controllability experiment."""

import math
from dataclasses import dataclass

import numpy as np

from .curves import lax_curve
from .profiles import PiecewiseConstant
from .tracking import TIME_TIE

DEFAULT_CENSUS_FLOOR = 1e-6      # below this a jump counts as wave dust
DEFAULT_SIGN_FLOOR = 1e-11       # opposite-family output resolvable above this
PROBE_MARGIN = 0.05              # default boundary-layer exclusion, per side x2
DEFAULT_LEVEL_DECAY = 2.0        # dense data: strength ratio between dyadic levels


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

    Front-tracking profiles carry purely atomic wave measures, each front
    an atom of its signed strength at its position, so the density bound
    becomes a binned-mass bound; shocks contribute nothing.
    """
    if probe is None:
        probe = _default_probe(snapshot.a, snapshot.b)
    lo, hi = probe
    edges = np.linspace(lo, hi, cells + 1)
    atoms = (snapshot.families == family) & (snapshot.sigmas > 0)
    densities = np.zeros(cells)
    width = (hi - lo) / cells
    for x, s in zip(snapshot.xs[atoms], snapshot.sigmas[atoms]):
        if lo <= x <= hi:
            # (x - lo) / width rounds up to cells for x an ulp below hi
            densities[min(int((x - lo) / width), cells - 1)] += s / width
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
    same-family wave comes out (cancellation, reported via ``fate``).  An
    id that was never born raises KeyError.
    """
    fronts = sim.fronts
    # numpy indexing would wrap a negative id
    if not 0 <= front_id < len(fronts["x0"]):
        raise KeyError(f"front {front_id} was never born")
    families, sigmas = fronts["families"].tolist(), fronts["sigmas"].tolist()
    consumed = {uid: rec for rec in sim.records for uid in rec.in_ids}
    family = families[front_id]
    lineage = [front_id]
    samples = [(fronts["t0"][front_id], fronts["x0"][front_id],
                abs(sigmas[front_id]))]
    merges = []
    fate = "alive"
    cur = front_id
    while cur in consumed:
        rec = consumed[cur]
        if rec.kind in ("exit_a", "exit_b"):
            fate = "exited"
            samples.append((rec.time, rec.x, samples[-1][2]))
            break
        outs = [uid for uid in rec.out_ids if families[uid] == family]
        if sum(families[uid] == family for uid in rec.in_ids) > 1:
            merges.append(rec.time)
        if not outs:
            fate = "cancelled"
            samples.append((rec.time, rec.x, 0.0))
            break
        uid = max(outs, key=lambda u: abs(sigmas[u]))
        samples.append((rec.time, rec.x, abs(sigmas[uid])))
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


def _same_family_shock_collisions(sim):
    """(record, family-2 output strength) of every collision of two or more
    fronts that are all family-1 shocks; the strength is 0.0 when the
    collision emits no family-2 wave."""
    fronts = sim.fronts
    families, sigmas, kinds = (fronts[name].tolist()
                               for name in ("families", "sigmas", "kinds"))
    for rec in sim.records:
        if rec.kind != "collision" or len(rec.in_ids) < 2:
            continue
        if not all(families[i] == 1 and kinds[i] == "shock" for i in rec.in_ids):
            continue
        out = [sigmas[i] for i in rec.out_ids if families[i] == 2]
        yield rec, out[0] if out else 0.0


def creation_events(sim, floor=DEFAULT_SIGN_FLOOR):
    """Interactions where family-1 shocks collide and emit a resolvable
    family-2 shock: strength below -floor."""
    return [(rec.time, rec.x)
            for rec, sig in _same_family_shock_collisions(sim)
            if sig < -floor]


def same_family_collision_compliance(sim, sign_floor=DEFAULT_SIGN_FLOOR):
    """Sign audit of pure family-1 shock collisions.

    Returns (events, compliant, unresolved): every collision of family-1
    shocks must emit a strictly negative (shock) wave of family 2.
    An output is resolved when its magnitude exceeds the sign floor, the
    rule ``creation_events`` applies; outputs at or below the floor are
    counted unresolved rather than judged.
    """
    n_events = n_compliant = n_unresolved = 0
    for _rec, sig in _same_family_shock_collisions(sim):
        n_events += 1
        if abs(sig) <= sign_floor:
            n_unresolved += 1
        elif sig < 0:
            n_compliant += 1
    return n_events, n_compliant, n_unresolved


def shock_census(sim, times, probe=None, strength_floor=DEFAULT_CENSUS_FLOOR,
                 creation_floor=DEFAULT_SIGN_FLOOR):
    """Per-time census of the fronts of kind shock above the dust floor, with
    largest gaps in the probe and the cumulative opposite-family creations."""
    if probe is None:
        probe = _default_probe(sim.a, sim.b)
    lo, hi = probe
    events = creation_events(sim, floor=creation_floor)
    reports = []
    for t in times:
        snap = sim.snapshot_at(t)
        positions, strengths, gaps = {}, {}, {}
        for family in range(1, sim.model.n + 1):
            mask = ((snap.families == family) & (snap.kinds == "shock")
                    & (snap.sigmas <= -strength_floor))
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


def dense_strengths(n_waves, strength, level_decay=DEFAULT_LEVEL_DECAY):
    """Signed strengths of the n waves of dense_initial_data, in the order of
    their positions: they decrease geometrically with the dyadic level of
    the position and sum to ``strength``."""
    if level_decay <= 1.0:
        raise ValueError("level_decay must exceed 1")
    weights = np.array([level_decay ** -lvl
                        for _, lvl in _dyadic_positions(n_waves, 0.0, 1.0)])
    return strength * weights / float(np.sum(weights))


def dense_initial_data(model, n_waves, strength, interval, base_state=None,
                       family=1, level_decay=DEFAULT_LEVEL_DECAY):
    """Profile of n elementary waves of one family at dyadic positions.

    The signed strengths (in Riemann-coordinate units, see dense_strengths)
    sum to ``strength``: a negative total gives pure shocks with no
    rarefaction content, a positive one pure rarefactions.  Refining n keeps
    adding weaker waves in the remaining gaps.
    """
    a, b = interval
    base = np.asarray(base_state if base_state is not None
                      else model.ref_state, dtype=float)
    states = [base]
    for s in dense_strengths(n_waves, strength, level_decay):
        states.append(lax_curve(model, states[-1], family, float(s)).state)
    xs = np.array([x for x, _ in _dyadic_positions(n_waves, a, b)])
    return PiecewiseConstant(a, b, xs, np.vstack(states))
