"""Scenario configs, validation, and the deterministic experiment runner.

A scenario is a single JSON document with a versioned schema id.  Running it
writes CSV/JSON reports plus a manifest holding the fully resolved config,
the produced file list, and the key metrics; identical configs reproduce
byte-identical outputs.
"""

import json
import math
from pathlib import Path

import numpy as np

from . import analysis, control
from .errors import ConfigError, ContractViolationError, HyperbolicityError
from .models import (Box, GasModel, LinearModel, TableModel,
                     verify_hypotheses)
from .profiles import PiecewiseConstant, constant_profile, profile_from_jumps
from .riemann import solve_riemann
from .tracking import Simulation, calibrate_interaction_constant, check_upsilon

SCHEMA_ID = "scenario-v1"
MANIFEST_ID = "manifest-v1"
EXPERIMENTS = ("evolve", "riemann", "curves", "steer", "stabilize",
               "counterexample", "linear_control")
FLOAT_FMT = "%.17g"

_TOP_KEYS = {
    "schema", "experiment", "epsilon", "domain", "model", "initial",
    "horizon", "snapshot_times", "u_star", "k_max", "delta_chain", "delta0",
    "omega", "omega_prime", "T", "phi", "psi", "riemann", "curves", "census",
    "density", "sweep", "workers",
}
_MODEL_KEYS = {"kind", "K", "gamma", "A", "terms", "p", "box", "ref_state",
               "min_speed", "curve_radius"}
_INITIAL_KEYS = {"kind", "value", "left", "jumps", "n", "budget", "base",
                 "level_decay", "family"}
_BLOCK_KEYS = {
    "riemann": {"ul", "ur"},
    "curves": {"u0", "family", "branch", "sigma_min", "sigma_max", "samples"},
    "census": {"times", "floor", "creation_floor", "probe"},
    "density": {"times", "cells", "probe"},
    "phi": {"xs", "values"},
    "psi": {"xs", "values"},
}
_DEFAULTS = {
    "epsilon": 0.01,
    "horizon": 1.0,
    "k_max": 4,
    "delta_chain": 0.05,
    "delta0": 0.1,
    "workers": 1,
}


def _fmt(x):
    return FLOAT_FMT % float(x)


def _is_vector(v, n=None):
    if not isinstance(v, list) or not all(isinstance(x, (int, float)) for x in v):
        return False
    return n is None or len(v) == n


def _block(config, name):
    """The named block of the config, or {} when it is not an object."""
    block = config.get(name)
    return block if isinstance(block, dict) else {}


def validate_config(config):
    """Schema and range diagnostics; an empty list means the config runs."""
    return _validate(config)[0]


def _validate(config):
    """Diagnostics of the config, and the model its model block builds
    (None when the block is rejected)."""
    diags = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"], None
    for key in config:
        if key not in _TOP_KEYS:
            diags.append(f"unknown key '{key}'")
    if config.get("schema") != SCHEMA_ID:
        diags.append(f"schema must be '{SCHEMA_ID}'")
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        diags.append(f"unknown experiment kind {exp!r}; "
                     f"expected one of {sorted(EXPERIMENTS)}")

    n_before_model = len(diags)
    model = config.get("model")
    if not isinstance(model, dict):
        diags.append("missing model block")
        model = {}
    for key in model:
        if key not in _MODEL_KEYS:
            diags.append(f"model: unknown key '{key}'")
    kind = model.get("kind")
    if kind not in ("gas", "linear", "custom-table"):
        diags.append(f"model.kind must be gas | linear | custom-table, got {kind!r}")
    if kind == "gas":
        gamma = model.get("gamma", 2.0)
        if not isinstance(gamma, (int, float)) or not (1.0 < gamma < 3.0):
            diags.append(f"model.gamma={gamma!r} outside the admissible "
                         "range 1 < gamma < 3")
        K = model.get("K", 1.0)
        if not isinstance(K, (int, float)) or K <= 0:
            diags.append(f"model.K={K!r} must be positive")
    if kind == "linear" and "A" not in model:
        diags.append("linear model needs matrix A")
    if kind == "custom-table":
        if "terms" not in model or "p" not in model:
            diags.append("custom-table model needs 'terms' and 'p'")
    if "box" in model:
        box = model["box"]
        if not (isinstance(box, list)
                and all(_is_vector(pair, 2) and pair[0] < pair[1]
                        for pair in box)):
            diags.append("model.box must be per-component [low, high] pairs "
                         "with low < high")
    built = None
    if len(diags) == n_before_model:
        try:
            built = build_model(model)
        except (TypeError, ValueError, KeyError, HyperbolicityError) as exc:
            diags.append(f"model block rejected: {exc}")

    for block_name, allowed in _BLOCK_KEYS.items():
        block = config.get(block_name)
        if isinstance(block, dict):
            for key in block:
                if key not in allowed:
                    diags.append(f"{block_name}: unknown key '{key}'")

    for name in ("epsilon", "horizon", "delta_chain", "delta0"):
        value = config.get(name, _DEFAULTS[name])
        if not isinstance(value, (int, float)) or value <= 0:
            diags.append(f"{name}={value!r} must be positive")
    dom = config.get("domain")
    if exp not in ("riemann", "curves"):
        if not (_is_vector(dom, 2) and dom[0] < dom[1]):
            diags.append(f"domain={dom!r} must be [a, b] with a < b")
    k_max = config.get("k_max", _DEFAULTS["k_max"])
    if not isinstance(k_max, int) or not (1 <= k_max <= 50):
        diags.append(f"k_max={k_max!r} must be an integer in 1..50")
    init, riem, curv = (_block(config, name)
                        for name in ("initial", "riemann", "curves"))
    for name, value in (("workers", config.get("workers", _DEFAULTS["workers"])),
                        ("density.cells", _block(config, "density").get("cells", 64)),
                        ("curves.samples", curv.get("samples", 61))):
        if not isinstance(value, int) or value < 1:
            diags.append(f"{name}={value!r} must be a positive integer")
    # the runners read a missing, null or empty times list as the default
    times = config.get("snapshot_times") or []
    if not (_is_vector(times) and all(0 <= s <= t for s, t in zip([0] + times, times))):
        diags.append("snapshot_times must be a non-decreasing list of times >= 0")
    for name in ("census", "density"):
        if not isinstance(config.get(name, {}), dict):
            diags.append(f"{name} must be an object")
        if not _is_vector(_block(config, name).get("times") or []):
            diags.append(f"{name}.times must be a list of numbers")
        probe = _block(config, name).get("probe", [0, 1])
        if not (_is_vector(probe, 2) and probe[0] < probe[1]):
            diags.append(f"{name}.probe={probe!r} must be [lo, hi] with lo < hi")

    initial = config.get("initial")
    if exp in ("evolve", "counterexample", "stabilize"):
        if not isinstance(initial, dict):
            diags.append(f"experiment '{exp}' needs an initial block")
        else:
            for key in initial:
                if key not in _INITIAL_KEYS:
                    diags.append(f"initial: unknown key '{key}'")
            ikind = initial.get("kind")
            if ikind not in ("constant", "jumps", "dense_shocks",
                             "rarefaction_only"):
                diags.append(f"initial.kind { ikind!r} not recognized")
            if ikind in ("dense_shocks", "rarefaction_only"):
                if not isinstance(initial.get("n"), int) or initial.get("n", 0) < 1:
                    diags.append("initial.n must be a positive integer")
                budget = initial.get("budget")
                if not isinstance(budget, (int, float)) or budget <= 0:
                    diags.append("initial.budget must be positive")
                decay = initial.get("level_decay", 2.0)
                if not isinstance(decay, (int, float)) or decay <= 1:
                    diags.append(f"initial.level_decay={decay!r} must exceed 1")
            if built is not None:
                diags.extend(_initial_state_diags(initial, built))
    if exp == "counterexample" and init.get("family", 1) != 1:
        diags.append("counterexample tracks family-1 shocks: initial.family must be 1")
    if exp in ("steer", "stabilize") and kind == "custom-table":
        diags.append(f"{exp} needs a Riemann chart, which a custom-table model lacks")
    if exp == "stabilize" and not _is_vector(config.get("u_star")):
        diags.append("stabilize needs u_star")
    if exp == "steer":
        if not _is_vector(config.get("omega")) or \
                not _is_vector(config.get("omega_prime")):
            diags.append("steer needs omega and omega_prime")
    if exp == "linear_control":
        if kind != "linear":
            diags.append("linear_control needs a linear model")
        for name in ("phi", "psi"):
            prof = config.get(name)
            if not (isinstance(prof, dict) and "xs" in prof and "values" in prof):
                diags.append(f"linear_control needs profile '{name}' "
                             "with xs and values")
            elif built is not None and not (
                    _is_vector(xs := prof["xs"]) and sorted(xs) == xs
                    and isinstance(vals := prof["values"], list)
                    and len(vals) == len(xs) + 1
                    and all(_is_vector(v, built.n) for v in vals)):
                diags.append(f"{name} must have sorted xs and len(xs) + 1 "
                             f"values of {built.n} numbers")
        T = config.get("T")
        if not isinstance(T, (int, float)) or T <= 0:
            diags.append("linear_control needs T > 0")
    if exp == "riemann":
        blk = config.get("riemann")
        if not (isinstance(blk, dict) and _is_vector(blk.get("ul"))
                and _is_vector(blk.get("ur"))):
            diags.append("riemann needs block {ul, ur}")
    if exp == "curves":
        blk = config.get("curves", {})
        if not (isinstance(blk, dict) and _is_vector(blk.get("u0"))):
            diags.append("curves needs block with u0")
        elif blk.get("branch", "lax") not in ("lax", "shock", "rarefaction"):
            diags.append("curves.branch must be lax | shock | rarefaction")
    if built is not None:
        states = {"riemann.ul": riem.get("ul"), "riemann.ur": riem.get("ur"),
                  "curves.u0": curv.get("u0"),
                  **{k: config.get(k) for k in ("omega", "omega_prime", "u_star")}}
        diags.extend(f"{name}={u!r} must be a state of {built.n} numbers"
                     for name, u in states.items()
                     if _is_vector(u) and len(u) != built.n)
        diags.extend(f"{name}={f!r} must be a family in 1..{built.n}"
                     for name, f in (("curves.family", curv.get("family", 1)),
                                     ("initial.family", init.get("family", 1)))
                     if not (isinstance(f, int) and 1 <= f <= built.n))
    sweep = config.get("sweep", [])
    if not (isinstance(sweep, list) and all(isinstance(o, dict) for o in sweep)):
        diags.append(f"sweep={sweep!r} must be a list of objects of "
                     "top-level overrides")
    else:
        diags.extend(f"sweep[{k}]: unknown key '{key}'"
                     for k, overrides in enumerate(sweep)
                     for key in overrides if key not in _TOP_KEYS)
    return diags, built


def _initial_state_diags(initial, model):
    """Every state the initial block names must be an admissible state of
    the model: a run would otherwise stop on a DomainError."""
    diags = []
    states = []
    if initial.get("kind") == "constant":
        states.append(("initial.value", initial.get("value")))
    elif initial.get("kind") == "jumps":
        states.append(("initial.left", initial.get("left")))
        jumps = initial.get("jumps")
        if not isinstance(jumps, list):
            diags.append("initial.jumps must be a list of [x, state] pairs")
            jumps = []
        for k, jump in enumerate(jumps):
            if isinstance(jump, list) and len(jump) == 2 \
                    and isinstance(jump[0], (int, float)):
                states.append((f"initial.jumps[{k}]", jump[1]))
            else:
                diags.append(f"initial.jumps[{k}] must be an [x, state] pair")
    if "base" in initial:
        states.append(("initial.base", initial["base"]))
    for name, u in states:
        if not _is_vector(u, model.n):
            diags.append(f"{name}={u!r} must be a state of {model.n} numbers")
        elif not model.in_domain(u):
            diags.append(f"{name}={u} lies outside the admissible domain "
                         "of the model")
    return diags


def checked_model(config):
    """The model a valid config builds; an invalid config raises
    ConfigError with every diagnostic."""
    diags, model = _validate(config)
    if diags:
        raise ConfigError(diags)
    return model


def read_config(path):
    """The JSON object in the file at path; a document that does not parse,
    or is not an object, raises ConfigError."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def validate_config_file(path):
    try:
        return validate_config(read_config(path))
    except ConfigError as exc:
        return exc.diagnostics


# -- construction from config ---------------------------------------------------


def build_model(block):
    kind = block["kind"]
    kw = {}
    if "box" in block:
        lows = [pair[0] for pair in block["box"]]
        highs = [pair[1] for pair in block["box"]]
        kw["box"] = Box(lows, highs)
    if "ref_state" in block:
        kw["ref_state"] = np.asarray(block["ref_state"], dtype=float)
    if "curve_radius" in block:
        kw["curve_radius"] = float(block["curve_radius"])
    if kind == "gas":
        return GasModel(K=float(block.get("K", 1.0)),
                        gamma=float(block.get("gamma", 2.0)),
                        min_speed=float(block.get("min_speed", 0.0)), **kw)
    if kind == "linear":
        return LinearModel(np.asarray(block["A"], dtype=float), **kw)
    if kind == "custom-table":
        if "box" not in kw:
            raise ConfigError("custom-table model needs an explicit box")
        return TableModel(block["terms"], int(block["p"]), kw.pop("box"), **kw)
    raise ConfigError(f"unknown model kind {kind!r}")


def build_initial(block, model, domain):
    a, b = domain
    kind = block["kind"]
    if kind == "constant":
        return constant_profile(a, b, np.asarray(block["value"], dtype=float))
    if kind == "jumps":
        return profile_from_jumps(a, b, block["left"], block["jumps"])
    signs = {"dense_shocks": -1.0, "rarefaction_only": 1.0}
    if kind not in signs:
        raise ConfigError(f"unknown initial kind {kind!r}")
    base = np.asarray(block["base"], dtype=float) if "base" in block \
        else model.ref_state
    return analysis.dense_initial_data(
        model, int(block["n"]), signs[kind] * float(block["budget"]), (a, b),
        base_state=base, family=int(block.get("family", 1)),
        level_decay=float(block.get("level_decay", 2.0)))


# -- writers ---------------------------------------------------------------------


class _OutputSet:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.files = []

    def _register(self, rel):
        self.files.append(str(rel))
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_csv(self, rel, header, rows):
        path = self._register(rel)
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for item in row:
                if isinstance(item, str):
                    cells.append(item)
                elif isinstance(item, (int, np.integer)):
                    cells.append(str(int(item)))
                else:
                    cells.append(_fmt(item))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")

    def write_json(self, rel, payload):
        path = self._register(rel)
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _snapshot_rows(snap):
    edges = np.concatenate(([snap.a], snap.xs, [snap.b]))
    rows = []
    for j in range(len(snap.states)):
        rows.append([edges[j], edges[j + 1]] + list(snap.states[j]))
    return rows


def _write_snapshot(out, rel_base, snap):
    n = snap.states.shape[1]
    header = ["x_left", "x_right"] + [f"u{k}" for k in range(n)]
    out.write_csv(rel_base + ".csv", header, _snapshot_rows(snap))
    out.write_json(rel_base + ".json", {
        "time": snap.time, "a": snap.a, "b": snap.b,
        "xs": list(map(float, snap.xs)),
        "families": list(map(int, snap.families)),
        "sigmas": list(map(float, snap.sigmas)),
        "speeds": list(map(float, snap.speeds)),
        "generations": list(map(int, snap.generations)),
        "kinds": list(snap.kinds),
        "states": [list(map(float, s)) for s in snap.states],
    })


def _write_sim_logs(out, sim, prefix=""):
    out.write_csv(prefix + "functionals.csv", ["t", "V", "Q", "TV"],
                  sim.functional_history)
    rows = []
    for rec in sim.records:
        rows.append([rec.time, rec.x, rec.kind,
                     ";".join(str(i) for i in rec.in_ids),
                     ";".join(str(i) for i in rec.out_ids),
                     rec.dV, rec.dQ])
    out.write_csv(prefix + "interactions.csv",
                  ["t", "x", "kind", "in_ids", "out_ids", "dV", "dQ"], rows)


# -- experiments ------------------------------------------------------------------


def _run_evolve(config, model, out):
    domain = tuple(config["domain"])
    profile = build_initial(config["initial"], model, domain)
    sim = Simulation(model, profile, float(config["epsilon"]))
    horizon = float(config["horizon"])
    times = config.get("snapshot_times") or [horizon]
    tv_series = []
    for idx, t in enumerate(times):
        snap = sim.advance_to(float(t))
        _write_snapshot(out, f"snapshots/snap_{idx:03d}", snap)
        tv_series.append((float(t), snap.tv()))
    _write_sim_logs(out, sim)
    c0 = calibrate_interaction_constant(model)
    ok, worst, n_checked = check_upsilon(sim, c0, 10 * sim.eps)
    if not ok:
        raise ContractViolationError(
            f"V + c0 Q increased by {worst:.3e} at some interaction",
            {"c0": c0})
    metrics = {
        "tv": {_fmt(t): tv for t, tv in tv_series},
        "events": len(sim.records),
        "fronts_final": sim.now.n_fronts,
        "upsilon_c0": c0,
        "upsilon_worst_increment": worst,
        "upsilon_events_checked": n_checked,
        "dropped_mass": sim.dropped_mass,
    }
    return metrics, sim


def _run_counterexample(config, model, out):
    metrics, sim = _run_evolve(config, model, out)
    horizon = float(config["horizon"])
    census_cfg = config.get("census", {})
    times = census_cfg.get("times") or list(np.linspace(0.0, horizon, 5))
    probe = tuple(census_cfg["probe"]) if "probe" in census_cfg else None
    floor = float(census_cfg.get("floor", analysis.DEFAULT_CENSUS_FLOOR))
    cfloor = float(census_cfg.get("creation_floor", analysis.DEFAULT_SIGN_FLOOR))
    reports = analysis.shock_census(sim, times, probe=probe,
                                    strength_floor=floor,
                                    creation_floor=cfloor)
    rows = []
    for rep in reports:
        for family in sorted(rep.positions):
            rows.append([rep.time, family, len(rep.positions[family]),
                         rep.largest_gap[family], rep.creation_count, rep.tv])
    out.write_csv("census.csv",
                  ["t", "family", "n_shocks", "largest_gap",
                   "creation_count", "tv"], rows)
    out.write_json("census.json", [{
        "time": rep.time,
        "probe": list(rep.probe),
        "tv": rep.tv,
        "creation_count": rep.creation_count,
        "creation_events": [[t, x] for t, x in rep.creation_events],
        "families": {str(f): {
            "positions": list(map(float, rep.positions[f])),
            "strengths": list(map(float, rep.strengths[f])),
            "largest_gap": rep.largest_gap[f],
        } for f in sorted(rep.positions)},
    } for rep in reports])

    dens_cfg = config.get("density", {})
    dtimes = dens_cfg.get("times") or list(np.linspace(0.2 * horizon, horizon, 8))
    cells = int(dens_cfg.get("cells", 64))
    dprobe = tuple(dens_cfg["probe"]) if "probe" in dens_cfg else None
    for family in range(1, model.n + 1):
        reps = analysis.density_series(sim, dtimes, family, cells=cells,
                                       probe=dprobe)
        if family == 1:
            slope, err = analysis.kappa_trend(reps)
        out.write_csv(f"density_f{family}.csv",
                      ["t", "max_density", "kappa_hat", "total_mass"],
                      [[r.time, r.max_density, r.kappa_hat, r.total_mass]
                       for r in reps])
        out.write_json(f"density_f{family}.json", [{
            "time": r.time, "family": r.family, "probe": list(r.probe),
            "max_density": r.max_density, "kappa_hat": r.kappa_hat,
            "densities": list(map(float, r.densities)),
        } for r in reps])

    n_ev, n_ok, n_unres = analysis.same_family_collision_compliance(sim)
    sid = analysis.strongest_front(sim, 1)
    track = analysis.track_shock_strength(sim, sid)
    out.write_csv("track.csv", ["t", "x", "abs_sigma"],
                  [list(row) for row in track.samples])
    out.write_json("track.json", {
        "lineage": [int(i) for i in track.lineage],
        "samples": [list(map(float, row)) for row in track.samples],
        "min_ratio": track.min_ratio,
        "merge_times": list(map(float, track.merges)),
        "fate": track.fate,
    })

    tv0 = sim.history[0].tv()
    tv_end = sim.now.tv()
    metrics.update({
        "creation_count": reports[-1].creation_count,
        "same_family_collisions": n_ev,
        "sign_compliant": n_ok,
        "sign_unresolved": n_unres,
        "tv_initial": tv0,
        "tv_final": tv_end,
        "tv_retention": tv_end / tv0 if tv0 > 0 else math.nan,
        "largest_gap_1shocks_final": reports[-1].largest_gap.get(1),
        "tracked_min_ratio": track.min_ratio,
        "tracked_fate": track.fate,
        "kappa_trend_slope": slope,
        "kappa_trend_stderr": err,
        "strength_parametrization": "riemann-coordinate-jump",
    })
    return metrics, sim


def _run_steer(config, model, out):
    domain = tuple(config["domain"])
    res = control.steer_constant_states(
        model, np.asarray(config["omega"], dtype=float),
        np.asarray(config["omega_prime"], dtype=float),
        domain, float(config["epsilon"]),
        chain_step=float(config["delta_chain"]))
    out.write_json("plan.json", {"horizon": res.plan.horizon,
                                 "tau": res.tau,
                                 "actions": res.plan.as_dicts()})
    _write_sim_logs(out, res.sim)
    _write_snapshot(out, "snapshots/final", res.final_snapshot)
    final_dist = res.final_snapshot.sup_distance(
        np.asarray(config["omega_prime"], dtype=float))
    if res.final_snapshot.n_fronts > 0 or final_dist > 1e-6:
        raise ContractViolationError(
            f"steering left {res.final_snapshot.n_fronts} fronts and "
            f"terminal distance {final_dist:.3e}")
    metrics = {
        "tau": res.tau,
        "hops": len(res.plan.actions) // 2,
        "horizon": res.plan.horizon,
        "final_sup_dist": final_dist,
        "fronts_final": int(res.final_snapshot.n_fronts),
        "hop_errors": [float(e) for e in res.hop_errors],
    }
    return metrics, res.sim


def _run_stabilize(config, model, out):
    domain = tuple(config["domain"])
    profile = build_initial(config["initial"], model, domain)
    u_star = np.asarray(config["u_star"], dtype=float)
    res = control.stabilize(model, profile, u_star,
                            k_max=int(config["k_max"]),
                            eps0=float(config["epsilon"]),
                            interval=domain,
                            chain_step=float(config["delta_chain"]),
                            delta0=float(config["delta0"]),
                            raise_on_failure=False)
    rows = [[r.k, r.time, r.sup_dist, r.tv,
             "nan" if math.isnan(r.ratio) else r.ratio]
            for r in res.record.rows]
    out.write_csv("contraction.csv", ["k", "t", "sup_dist", "tv", "ratio"], rows)
    actions = res.pre_plan.as_dicts()
    for step in res.steps:
        actions.extend(step.plan.as_dicts())
    out.write_json("plan.json", {"tau": res.tau, "actions": actions})
    slope, intercept, r2 = res.record.loglog_fit()
    violations = [v for step in res.steps for v in step.violations]
    metrics = {
        "tau": res.tau,
        "deltas": [float(r.delta) for r in res.record.rows],
        "ratios": [None if math.isnan(r.ratio) else float(r.ratio)
                   for r in res.record.rows],
        "loglog_slope": slope,
        "loglog_r2": r2,
        "iterations": len(res.record.rows) - 1,
        "violations": len(violations),
        "failure": res.record.failure,
        "strength_parametrization": "riemann-coordinate-jump",
    }
    if res.record.failure:
        raise ContractViolationError(res.record.failure, metrics)
    return metrics, None


def _run_linear_control(config, model, out):
    a, b = config["domain"]
    phi, psi = (PiecewiseConstant(a, b, config[name]["xs"], config[name]["values"])
                for name in ("phi", "psi"))
    sol = control.linear_exact_control(model, phi, psi, float(config["T"]))

    def compare(pa, pb):
        # breakpoints can drift by roundoff along characteristics; sample
        # midpoints of cells wider than that
        bps = np.union1d(pa.xs, pb.xs)
        edges = np.concatenate(([pa.a], bps, [pa.b]))
        mids = [0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])
                if hi - lo > 1e-12]
        return max(float(np.max(np.abs(pa(m) - pb(m)))) for m in mids)

    err0 = compare(sol.profile_at(0.0), phi)
    errT = compare(sol.profile_at(sol.T), psi)
    for (side, family), data in sorted(sol.boundary_data().items()):
        out.write_csv(f"boundary_{side}_f{family}.csv",
                      ["t_from", "t_to", "value"], data.cells())
    metrics = {"tau": sol.tau, "T": sol.T,
               "reconstruction_error_t0": err0,
               "reconstruction_error_T": errT}
    return metrics, None


def riemann_payload(config, model):
    """JSON-ready solution of the config's riemann block."""
    blk = config["riemann"]
    sol = solve_riemann(model, np.asarray(blk["ul"], dtype=float),
                        np.asarray(blk["ur"], dtype=float))
    return {
        "sigmas": [float(s) for s in sol.sigmas],
        "residual": sol.residual,
        "states": [[float(x) for x in s] for s in sol.states],
        "waves": [{
            "family": w.family, "sigma": w.sigma, "kind": w.kind,
            "speed_lo": w.speed_lo, "speed_hi": w.speed_hi,
            "rh_residual": w.rh_residual,
        } for w in sol.waves],
    }


def _run_riemann(config, model, out):
    payload = riemann_payload(config, model)
    out.write_json("riemann.json", payload)
    return {"sigmas": payload["sigmas"], "residual": payload["residual"]}, None


def format_riemann_table(payload):
    lines = [f"{'family':>6} {'kind':>12} {'sigma':>24} "
             f"{'speed_lo':>24} {'speed_hi':>24}"]
    for w in payload["waves"]:
        lines.append(f"{w['family']:>6} {w['kind']:>12} {w['sigma']:>24.16e} "
                     f"{w['speed_lo']:>24.16e} {w['speed_hi']:>24.16e}")
    lines.append("intermediate states:")
    for s in payload["states"]:
        lines.append("  (" + ", ".join(f"{x:.16e}" for x in s) + ")")
    return "\n".join(lines)


def _run_curves(config, model, out):
    from .curves import lax_curve, rarefaction_curve, shock_curve
    blk = config["curves"]
    u0 = np.asarray(blk["u0"], dtype=float)
    family = int(blk.get("family", 1))
    branch = blk.get("branch", "lax")
    lo = float(blk.get("sigma_min", -0.3))
    hi = float(blk.get("sigma_max", 0.3))
    samples = int(blk.get("samples", 61))
    fn = {"lax": lax_curve, "shock": shock_curve,
          "rarefaction": rarefaction_curve}[branch]
    rows = []
    for sig in np.linspace(lo, hi, samples):
        cp = fn(model, u0, family, float(sig))
        rows.append([cp.sigma] + list(cp.state) + [cp.speed])
    header = ["sigma"] + [f"u{k}" for k in range(model.n)] + ["speed"]
    out.write_csv("curves.csv", header, rows)
    return {"family": family, "branch": branch, "samples": samples}, None


_RUNNERS = {
    "evolve": _run_evolve,
    "counterexample": _run_counterexample,
    "steer": _run_steer,
    "stabilize": _run_stabilize,
    "linear_control": _run_linear_control,
    "riemann": _run_riemann,
    "curves": _run_curves,
}


def resolve_config(config):
    """The config of one run with the defaults filled in; a sweep is not
    part of it."""
    resolved = dict(_DEFAULTS)
    resolved.update(config)
    resolved.pop("sweep", None)
    return resolved


def _admission_gate(model, experiment):
    """Nonlinear control and census experiments require the structural
    hypotheses to hold on the declared admissible domain."""
    if model.kind == "linear":
        return
    if experiment not in ("steer", "stabilize", "counterexample"):
        return
    report = verify_hypotheses(model, samples_per_axis=12,
                               respect_predicate=True)
    if not report.admitted:
        raise ContractViolationError(
            "model rejected by the hypothesis sweep:\n" + report.summary(),
            {"violations": len(report.violations)})


def run_scenario(config, out_dir):
    """Validate, run, and write all report files plus manifest.json.

    Raises ConfigError before producing any output when the config is
    invalid; solver and invariant failures propagate after partial output.
    """
    model = checked_model(config)
    config = resolve_config(config)
    _admission_gate(model, config["experiment"])
    out = _OutputSet(out_dir)
    out.out_dir.mkdir(parents=True, exist_ok=True)
    metrics, _sim = _RUNNERS[config["experiment"]](config, model, out)
    manifest = {
        "schema": MANIFEST_ID,
        "config": config,
        "files": sorted(out.files),
        "metrics": metrics,
    }
    out.write_json("manifest.json", manifest)
    return manifest


def run_sweep(config, out_dir, overrides_list, workers=1):
    """Fan independent scenario variants into sweep_NNN subdirectories."""
    manifests = []
    jobs = []
    for idx, ov in enumerate(overrides_list):
        variant = dict(config)
        variant.update(ov)
        variant.pop("sweep", None)
        jobs.append((variant, str(Path(out_dir) / f"sweep_{idx:03d}")))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            manifests = list(pool.map(_run_one, jobs))
    else:
        manifests = [_run_one(job) for job in jobs]
    return manifests


def _run_one(job):
    config, out_dir = job
    return run_scenario(config, out_dir)
