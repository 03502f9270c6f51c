"""Scenario configs, validation, and the deterministic experiment runner.

A scenario is a single JSON document with a versioned schema id; ``_SCHEMA``
holds the keys each experiment and each model or initial kind reads.
Running it writes CSV/JSON reports plus a manifest holding the produced
file list, the key metrics and the config: as given, less its sweep, with
the defaults of the top-level keys its experiment reads filled in (a block
key left out takes the default of its reader).  Identical configs reproduce
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
FLOAT_FMT = "%.17g"     # the text of every number of a report
_REQUIRED = "required"


# -- the config schema ------------------------------------------------------------
# A check maps (dotted name, value, model, parent block) to the value's
# diagnostics; the model is None while the model block is checked or when
# it is rejected.


def _number(v):
    """A JSON number; a boolean is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(v):
    """A finite JSON number; math.isfinite would overflow on a long int."""
    return _number(v) and (isinstance(v, int) or math.isfinite(v))


def _numbers(v, n=None, each=_number):
    return (isinstance(v, list) and all(map(each, v))
            and (n is None or len(v) == n))


def _is(test, message):
    """The check that reports message, formatted with the key's name, value
    and parent block and n, the model's number of components, when
    test(value, model) fails."""
    def check(name, value, model, parent):
        return [] if test(value, model) else [message.format(
            name=name, value=value, parent=parent,
            n="n" if model is None else model.n)]
    return check


_POSITIVE = _is(lambda v, m: _finite(v) and v > 0,
                "{name}={value!r} must be positive and finite")
_COUNT = _is(lambda v, m: _integer(v) and v >= 1,
             "{name}={value!r} must be a positive integer")
_NUMBER = _is(lambda v, m: _number(v), "{name}={value!r} must be a number")
_INTERVAL = _is(lambda v, m: _numbers(v, 2, _finite) and v[0] < v[1],
                "{name}={value!r} must be [lo, hi] with lo < hi, both finite")
_TIMES = _is(lambda v, m: v is None or _numbers(v),
             "{name} must be a list of numbers")
_STATE = _is(lambda v, m: _numbers(v, None if m is None else m.n),
             "{name}={value!r} must be a state of {n} numbers")
_FAMILY = _is(lambda v, m: _integer(v) and v >= 1 and (m is None or v <= m.n),
              "{name}={value!r} must be a family in 1..{n}")


def _admissible(name, value, model, parent):
    """A state of the model inside its admissible domain: a run would
    otherwise stop on a DomainError."""
    diags = _STATE(name, value, model, parent)
    if diags or model is None or model.in_domain(value):
        return diags
    return [f"{name}={value} lies outside the admissible domain of the model"]


def _jumps(name, value, model, parent):
    if not isinstance(value, list):
        return [f"{name} must be a list of [x, state] pairs"]
    diags = []
    for k, jump in enumerate(value):
        if isinstance(jump, list) and len(jump) == 2 and _number(jump[0]):
            diags += _admissible(f"{name}[{k}]", jump[1], model, parent)
        else:
            diags.append(f"{name}[{k}] must be an [x, state] pair")
    return diags


def _finite_number(name, value, model, parent):
    """A number, and a finite one: a NaN floor compares false with every
    strength."""
    return _NUMBER(name, value, model, parent) or (
        [] if _finite(value) else [f"{name}={value!r} must be finite"])


def _strength(name, value, model, parent):
    """A wave strength the model's curves reach."""
    diags = _NUMBER(name, value, model, parent)
    if diags or model is None or abs(value) <= model.curve_radius:
        return diags
    return [f"{name}={value!r} beyond curve radius {model.curve_radius}"]


def _crossing(name, value, model, config):
    """A linear_control horizon T no shorter than the crossing time that
    linear_exact_control requires, from the same model.least_speed(); a zero
    speed is its own (solver) error."""
    diags = _POSITIVE(name, value, model, config)
    dom = config.get("domain")
    if diags or model is None or model.kind != "linear" or not _numbers(dom, 2):
        return diags
    speed = model.least_speed()
    if speed > 0 and value < (tau := (dom[1] - dom[0]) / speed) - 1e-12:
        return [f"T={float(value)} below crossing time tau={tau}"]
    return []


def _in_horizon(name, times, config):
    """Report times within [0, horizon], where an evolve run ends."""
    horizon = config.get("horizon", _EVOLVE["horizon"][0])
    if _numbers(times) and _number(horizon) and not all(
            0 <= t <= horizon for t in times):
        return [f"{name}={times!r} must lie in [0, horizon={horizon!r}]"]
    return []


_ORDERED_TIMES = _is(lambda v, m: v is None or _numbers(v) and all(
    0 <= s <= t for s, t in zip([0] + v, v)),
    "{name} must be a non-decreasing list of times >= 0")


def _snapshot_times(name, value, model, config):
    return (_ORDERED_TIMES(name, value, model, config)
            or _in_horizon(name, value, config))


def _block_times(name, block, model, config):
    return _in_horizon(f"{name}.times", block.get("times"), config)


def _sweep(name, value, model, parent):
    """A list of top-level overrides, none of which holds a sweep."""
    if not (isinstance(value, list) and all(isinstance(o, dict) for o in value)):
        return [f"{name}={value!r} must be a list of objects of top-level "
                "overrides"]
    return [f"{name}[{k}]: a sweep variant cannot hold a sweep"
            for k, o in enumerate(value) if "sweep" in o]


def _block(group, *rules):
    """The check of a block against its table _SCHEMA[group], then, once its
    keys pass, against each rule: a check of the whole block."""
    def check(path, value, model, parent):
        diags = _block_diags(path, value, group, model)
        return diags or [d for rule in rules
                         for d in rule(path, value, model, parent)]
    return check


def _waves_in_radius(name, initial, model, config):
    """Every wave of a dense profile within the model's curve radius."""
    if model is None or initial["kind"] not in ("dense_shocks",
                                                "rarefaction_only"):
        return []
    decay = {k: initial[k] for k in ("level_decay",) if k in initial}
    largest = float(np.max(np.abs(analysis.dense_strengths(
        initial["n"], initial["budget"], **decay))))
    if largest > model.curve_radius:
        return [f"{name}: largest wave |sigma|={largest:.3g} beyond curve "
                f"radius {model.curve_radius}"]
    return []


def _positions(name, xs, config):
    """Positions xs finite, inside the domain [a, b] and non-decreasing:
    one diagnostic per position that is not, each one checked against the
    last position that passed.  A list of non-numbers is left to its own
    check."""
    dom = config.get("domain")
    if not (_numbers(dom, 2) and _numbers(xs)):
        return []
    a, b = dom
    diags, last = [], a
    for k, x in enumerate(xs):
        where = f"{name}[{k}] position {x!r}"
        if not _finite(x):
            diags.append(f"{where} must be finite")
        elif not a <= x <= b:
            diags.append(f"{where} lies outside the domain [{a!r}, {b!r}]")
        elif x < last:
            diags.append(f"{where} lies left of the previous position {last!r}")
        else:
            last = x
    return diags


def _jump_positions(name, initial, model, config):
    """The positions of a jumps profile, by the rule of _positions."""
    if initial["kind"] != "jumps":
        return []
    return _positions(f"{name}.jumps", [x for x, _ in initial["jumps"]], config)


_CONSTANT_RULE = _is(lambda v, m: v["kind"] != "constant",
                     "counterexample tracks family-1 shocks: a constant "
                     "initial profile has no family-1 front")
_FAMILY_1_RULE = _is(lambda v, m: v.get("family") in (None, 1),
                     "counterexample tracks family-1 shocks: initial.family "
                     "must be 1")
_CHARTED = _is(lambda v, m: m is None or m.has_chart,
               "{parent[experiment]} needs a Riemann chart, which a "
               "custom-table model lacks")
_LINEAR = _is(lambda v, m: m is None or m.kind == "linear",
              "linear_control needs a linear model")
_PROFILE_RULE = _is(
    lambda v, m: m is None or (
        _numbers(v["xs"])
        and isinstance(v["values"], list) and len(v["values"]) == len(v["xs"]) + 1
        and all(_numbers(u, m.n, _finite) for u in v["values"])),
    "{name} must have numeric xs and len(xs) + 1 values of {n} finite numbers")


def _breakpoints(name, profile, model, config):
    """A linear_control profile: len(xs) + 1 values, and breakpoints xs
    by the rule of jump positions, _positions."""
    return (_PROFILE_RULE(name, profile, model, config)
            or _positions(f"{name}.xs", profile["xs"], config))


_BOX = _is(lambda v, m: isinstance(v, list) and all(
    _numbers(pair, 2, _finite) and pair[0] < pair[1] for pair in v),
    "{name}={value!r} must be finite [low, high] pairs with low < high")
_FINITE_STATE = _is(lambda v, m: _numbers(v, None, _finite),
                    "{name}={value!r} must be a state of finite numbers")
_MODEL_COMMON = {"box": (None, _BOX), "ref_state": (None, _FINITE_STATE)}
_DENSE = {
    "n": (_REQUIRED, _COUNT),
    "budget": (_REQUIRED, _POSITIVE),
    "base": (None, _admissible),
    "level_decay": (None, _is(lambda v, m: _number(v) and v > 1,
                              "{name}={value!r} must exceed 1")),
    "family": (None, _FAMILY),
}
_PROFILE = {"xs": (_REQUIRED, None), "values": (_REQUIRED, None)}

_COMMON = {
    "schema": (_REQUIRED, _is(lambda v, m: v == SCHEMA_ID,
                             f"schema must be '{SCHEMA_ID}'")),
    "model": (_REQUIRED, None),
    "sweep": (None, _sweep),
}
_DOMAIN = {"domain": (_REQUIRED, _INTERVAL)}
_TRACKED = {**_COMMON, **_DOMAIN, "epsilon": (0.01, _POSITIVE)}
_CHAINED = {"model": (_REQUIRED, _CHARTED), "delta_chain": (0.05, _POSITIVE)}
_INITIAL = (_REQUIRED, _block("initial", _waves_in_radius, _jump_positions))
_EVOLVE = {
    **_TRACKED,
    "initial": _INITIAL,
    "horizon": (1.0, _POSITIVE),
    # a missing, null or empty list reads as [horizon]
    "snapshot_times": (None, _snapshot_times),
}

# The keys each table reads: key -> (default, check).  The default is
# _REQUIRED, None when the key may be left out, or the value that
# resolve_config fills in; only top-level keys have one.  "experiment" picks
# the top-level table, "kind" the table of a model or initial block.
_SCHEMA = {
    "experiment": {
        "evolve": _EVOLVE,
        "riemann": {**_COMMON, "riemann": (_REQUIRED, _block("riemann"))},
        "curves": {**_COMMON, "curves": (_REQUIRED, _block("curves"))},
        "steer": {**_TRACKED, **_CHAINED,
                  "omega": (_REQUIRED, _admissible),
                  "omega_prime": (_REQUIRED, _admissible)},
        "stabilize": {**_TRACKED, **_CHAINED,
                      "initial": _INITIAL,
                      "u_star": (_REQUIRED, _admissible),
                      "k_max": (4, _is(lambda v, m: _integer(v) and 1 <= v <= 50,
                                       "{name}={value!r} must be an integer "
                                       "in 1..50")),
                      "delta0": (0.1, _POSITIVE)},
        "counterexample": {
            **_EVOLVE,
            "initial": (_REQUIRED, _block("initial", _waves_in_radius,
                                         _jump_positions, _CONSTANT_RULE,
                                         _FAMILY_1_RULE)),
            "census": (None, _block("census", _block_times)),
            "density": (None, _block("density", _block_times)),
        },
        "linear_control": {**_COMMON, **_DOMAIN,
                           "model": (_REQUIRED, _LINEAR),
                           "phi": (_REQUIRED, _block("phi", _breakpoints)),
                           "psi": (_REQUIRED, _block("psi", _breakpoints)),
                           "T": (_REQUIRED, _crossing)},
    },
    "model": {
        "gas": {"K": (None, _is(lambda v, m: _finite(v) and 0 < v < 2.0 ** 512,
                                "{name}={value!r} must be in 0 < K < 2**512, "
                                "where the flux's K**2 is a finite float")),
                "gamma": (None, _is(lambda v, m: _number(v) and 1 < v < 3,
                                    "{name}={value!r} outside the admissible "
                                    "range 1 < gamma < 3")),
                "min_speed": (None, _is(lambda v, m: _finite(v) and v >= 0,
                                        "{name}={value!r} must be finite "
                                        "and >= 0")),
                **_MODEL_COMMON},
        "linear": {"A": (_REQUIRED, None), **_MODEL_COMMON},
        "custom-table": {
            "terms": (_REQUIRED, None),
            "p": (_REQUIRED, _is(lambda v, m: _integer(v) and v >= 0,
                                "{name}={value!r} must be an integer >= 0")),
            **_MODEL_COMMON,
            "box": (_REQUIRED, _BOX),
        },
    },
    "initial": {
        "constant": {"value": (_REQUIRED, _admissible)},
        "jumps": {"left": (_REQUIRED, _admissible), "jumps": (_REQUIRED, _jumps)},
        "dense_shocks": _DENSE,
        "rarefaction_only": _DENSE,
    },
    "riemann": {"ul": (_REQUIRED, _admissible),
                "ur": (_REQUIRED, _admissible)},
    "curves": {
        "u0": (_REQUIRED, _admissible),
        "family": (None, _FAMILY),
        "branch": (None, _is(lambda v, m: v in ("lax", "shock", "rarefaction"),
                             "{name}={value!r} must be lax | shock | "
                             "rarefaction")),
        "sigma_min": (None, _strength),
        "sigma_max": (None, _strength),
        "samples": (None, _COUNT),
    },
    "census": {"times": (None, _TIMES), "floor": (None, _finite_number),
               "creation_floor": (None, _finite_number),
               "probe": (None, _INTERVAL)},
    "density": {"times": (None, _TIMES), "cells": (None, _COUNT),
                "probe": (None, _INTERVAL)},
    "phi": _PROFILE,
    "psi": _PROFILE,
}
_KIND_KEYS = {"experiment": "experiment", "model": "kind", "initial": "kind"}
EXPERIMENTS = tuple(_SCHEMA["experiment"])


def _block_diags(path, block, group, model):
    """Diagnostics of a block against its table _SCHEMA[group]: an unknown
    kind, each key the table does not read, each required key missing and
    each value its check rejects.  path names the block ("" at the top)."""
    if not isinstance(block, dict):
        return [f"{path} must be an object"]
    table, kind_key, where = _SCHEMA[group], _KIND_KEYS.get(group), ""
    if kind_key:
        kind = block.get(kind_key)
        if not isinstance(kind, str) or kind not in table:
            return [f"unknown {group} kind {kind!r}; expected one of "
                    f"{sorted(table)}"]
        table, where = table[kind], f" for {group} kind {kind!r}"
    at, unknown = (f"{path}.", f"{path}: ") if path else ("", "")
    diags = [f"{unknown}unknown key '{key}'{where}"
             for key in block if key not in table and key != kind_key]
    for key, (default, check) in table.items():
        if key in block:
            if check is not None:
                diags += check(at + key, block[key], model, block)
        elif default == _REQUIRED:
            diags.append(f"{at}{key} is required{where}")
    return diags


def validate_config(config):
    """Schema and range diagnostics; an empty list means the config runs."""
    return _validate(config)[0]


def _validate(config):
    """Diagnostics of the config, and the model its model block builds
    (None when the block is rejected).  The model block is checked and
    built first, since other checks read the model, and a ref_state it
    gives must be admissible for the model it builds; each sweep variant is
    checked once the config itself passes."""
    if not isinstance(config, dict):
        return ["config must be a JSON object"], None
    diags, model = [], None
    if "model" in config:
        block = config["model"]
        diags = _block_diags("model", block, "model", None)
        if not diags:
            try:
                model = build_model(block)
            except (TypeError, ValueError, KeyError, OverflowError,
                    HyperbolicityError) as exc:
                diags = [f"model block rejected: {exc}"]
            else:
                if "ref_state" in block:
                    diags = _admissible("model.ref_state", block["ref_state"],
                                        model, block)
                if diags:
                    model = None
    diags += _block_diags("", config, "experiment", model)
    if not diags:
        for k, overrides in enumerate(config.get("sweep", [])):
            diags += [f"sweep[{k}]: {d}"
                      for d in _validate(_variant(config, overrides))[0]]
    return diags, model


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


def resolve_config(config):
    """The config of one run: the defaults of the top-level keys its
    experiment reads, overridden by the config; a sweep is not part of it."""
    table = _SCHEMA["experiment"][config["experiment"]]
    return _variant({key: default for key, (default, _) in table.items()
                     if default not in (None, _REQUIRED)}, config)


def _variant(config, overrides):
    """The config of one sweep variant."""
    variant = {**config, **overrides}
    variant.pop("sweep", None)
    return variant


# -- construction from config ---------------------------------------------------

_MODELS = {"gas": GasModel, "linear": LinearModel, "custom-table": TableModel}
_BUILT_SIZE = 8      # distinct model blocks a process keeps built
_built = {}          # canonical block JSON -> model, least recently used first


def build_model(block):
    """The model of a model block; a key the block leaves out takes the
    model class's default.

    The last _BUILT_SIZE distinct blocks, keyed by json.dumps(block,
    sort_keys=True), keep their model, so a process builds each block once
    and computes the facts a model memoises (its hypothesis reports, least
    speed and c0) once.  Models are immutable, so sharing one is safe; a
    block that fails to build is not kept.
    """
    key = json.dumps(block, sort_keys=True)
    model = _built.pop(key, None)
    if model is None:
        kw = {name: value for name, value in block.items() if name != "kind"}
        if "box" in kw:
            kw["box"] = Box([pair[0] for pair in kw["box"]],
                            [pair[1] for pair in kw["box"]])
        model = _MODELS[block["kind"]](**kw)
    _built[key] = model
    if len(_built) > _BUILT_SIZE:
        del _built[next(iter(_built))]
    return model


def build_initial(block, model, domain):
    """The initial profile of an initial block on the domain; a key a dense
    block leaves out takes dense_initial_data's default."""
    a, b = domain
    kind = block["kind"]
    if kind == "constant":
        return constant_profile(a, b, np.asarray(block["value"], dtype=float))
    if kind == "jumps":
        return profile_from_jumps(a, b, block["left"], block["jumps"])
    kw = {key: block[key] for key in ("family", "level_decay") if key in block}
    if "base" in block:
        kw["base_state"] = block["base"]
    sign = {"dense_shocks": -1.0, "rarefaction_only": 1.0}[kind]
    return analysis.dense_initial_data(model, block["n"], sign * block["budget"],
                                       (a, b), **kw)


# -- writers ---------------------------------------------------------------------


class _OutputSet:
    """The files of one run.  A CSV row becomes text by text_row, and JSON
    writes a numpy array or scalar as its tolist()."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.files = []

    def _register(self, rel):
        self.files.append(str(rel))
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_csv(self, rel, header, rows):
        lines = [",".join(header)] + [text_row(row, ",") for row in rows]
        self._register(rel).write_text("\n".join(lines) + "\n")

    def write_json(self, rel, payload):
        self._register(rel).write_text(json.dumps(
            payload, sort_keys=True, indent=1, default=_json_value) + "\n")


def text_row(row, sep):
    """A report row as text, the one rule for every number of a CSV or .dat
    file: a str cell as it is, any other cell FLOAT_FMT % cell."""
    return sep.join(c if isinstance(c, str) else FLOAT_FMT % c for c in row)


def _json_value(obj):
    """The Python value of a numpy array or scalar, which json cannot write;
    anything else raises TypeError, as json does."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _write_snapshot(out, rel_base, snap):
    n = snap.states.shape[1]
    header = ["x_left", "x_right"] + [f"u{k}" for k in range(n)]
    edges = np.concatenate(([snap.a], snap.xs, [snap.b]))
    out.write_csv(rel_base + ".csv", header,
                  np.column_stack((edges[:-1], edges[1:], snap.states)))
    out.write_json(rel_base + ".json", {
        "time": snap.time, "a": snap.a, "b": snap.b,
        "xs": snap.xs,
        "families": snap.families,
        "sigmas": snap.sigmas,
        "speeds": snap.speeds,
        "generations": snap.generations,
        "kinds": snap.kinds,
        "states": snap.states,
    })


def _write_sim_logs(out, sim):
    out.write_csv("functionals.csv", ["t", "V", "Q", "TV"],
                  sim.functional_history)
    out.write_csv("interactions.csv",
                  ["t", "x", "kind", "in_ids", "out_ids", "dV", "dQ"],
                  [[r.time, r.x, r.kind, text_row(r.in_ids, ";"),
                    text_row(r.out_ids, ";"), r.dV, r.dQ] for r in sim.records])


# -- experiments ------------------------------------------------------------------


def _run_evolve(config, model, out):
    domain = tuple(config["domain"])
    profile = build_initial(config["initial"], model, domain)
    sim = Simulation(model, profile, float(config["epsilon"]))
    if config["experiment"] == "counterexample" and 1 not in sim.now.families:
        raise ConfigError("counterexample tracks family-1 shocks: the initial "
                          "profile has no family-1 front")
    horizon = float(config["horizon"])
    times = config.get("snapshot_times") or [horizon]
    tv = {}
    for idx, t in enumerate(times):
        snap = sim.advance_to(float(t))
        _write_snapshot(out, f"snapshots/snap_{idx:03d}", snap)
        tv[FLOAT_FMT % t] = snap.tv()
    if sim.time < horizon:      # the run ends at its horizon, not its last snapshot
        sim.advance_to(horizon)
    _write_sim_logs(out, sim)
    c0 = calibrate_interaction_constant(model)
    ok, worst, n_checked = check_upsilon(sim, c0, 10 * sim.eps)
    if not ok:
        raise ContractViolationError(
            f"V + c0 Q increased by {worst:.3e} at some interaction",
            {"c0": c0})
    metrics = {
        "tv": tv,
        "events": len(sim.records),
        "fronts_final": sim.now.n_fronts,
        "upsilon_c0": c0,
        "upsilon_worst_increment": worst,
        "upsilon_events_checked": n_checked,
        "dropped_mass": sim.dropped_mass,
    }
    if config["experiment"] == "counterexample":
        metrics.update(_counterexample_reports(config, model, out, sim))
    return metrics


def _counterexample_reports(config, model, out, sim):
    """Write the census, density and lineage reports; returns their metrics."""
    horizon = float(config["horizon"])
    census = config.get("census", {})
    times = census.get("times") or list(np.linspace(0.0, horizon, 5))
    reports = analysis.shock_census(sim, times, **{
        {"floor": "strength_floor"}.get(key, key): value
        for key, value in census.items() if key != "times"})
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
        "probe": rep.probe,
        "tv": rep.tv,
        "creation_count": rep.creation_count,
        "creation_events": rep.creation_events,
        "families": {str(f): {
            "positions": rep.positions[f],
            "strengths": rep.strengths[f],
            "largest_gap": rep.largest_gap[f],
        } for f in sorted(rep.positions)},
    } for rep in reports])

    density = config.get("density", {})
    dtimes = density.get("times") or list(np.linspace(0.2 * horizon, horizon, 8))
    for family in range(1, model.n + 1):
        reps = analysis.density_series(sim, dtimes, family, **{
            key: value for key, value in density.items() if key != "times"})
        if family == 1:
            slope, err = analysis.kappa_trend(reps)
        out.write_csv(f"density_f{family}.csv",
                      ["t", "max_density", "kappa_hat", "total_mass"],
                      [[r.time, r.max_density, r.kappa_hat, r.total_mass]
                       for r in reps])
        out.write_json(f"density_f{family}.json", [{
            "time": r.time, "family": r.family, "probe": r.probe,
            "max_density": r.max_density, "kappa_hat": r.kappa_hat,
            "densities": r.densities,
        } for r in reps])

    n_ev, n_ok, n_unres = analysis.same_family_collision_compliance(
        sim, census.get("creation_floor", analysis.DEFAULT_SIGN_FLOOR))
    sid = analysis.strongest_front(sim, 1)
    track = analysis.track_shock_strength(sim, sid)
    out.write_csv("track.csv", ["t", "x", "abs_sigma"], track.samples)
    out.write_json("track.json", {
        "lineage": track.lineage,
        "samples": track.samples,
        "min_ratio": track.min_ratio,
        "merge_times": track.merges,
        "fate": track.fate,
    })

    tv0 = sim.history[0].tv()
    tv_end = sim.now.tv()
    return {
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
        "strength_parametrization": (
            "riemann-coordinate-jump" if model.has_chart
            else "left-eigenvector-projection"),
    }


def _run_steer(config, model, out):
    domain = tuple(config["domain"])
    res = control.steer_constant_states(
        model, np.asarray(config["omega"], dtype=float),
        np.asarray(config["omega_prime"], dtype=float),
        domain, float(config["epsilon"]),
        chain_step=float(config["delta_chain"]))
    final = res.sim.now
    out.write_json("plan.json", {"horizon": res.sim.time, "tau": res.tau,
                                 "actions": [vars(a) for a in res.actions]})
    _write_sim_logs(out, res.sim)
    _write_snapshot(out, "snapshots/final", final)
    final_dist = final.sup_distance(
        np.asarray(config["omega_prime"], dtype=float))
    if final.n_fronts > 0 or final_dist > 1e-6:
        raise ContractViolationError(
            f"steering left {final.n_fronts} fronts and "
            f"terminal distance {final_dist:.3e}")
    metrics = {
        "tau": res.tau,
        "hops": len(res.actions) // 2,
        "horizon": res.sim.time,
        "final_sup_dist": final_dist,
        "fronts_final": final.n_fronts,
        "hop_errors": res.hop_errors,
    }
    return metrics


def _run_stabilize(config, model, out):
    domain = tuple(config["domain"])
    profile = build_initial(config["initial"], model, domain)
    u_star = np.asarray(config["u_star"], dtype=float)
    res = control.stabilize(model, profile, u_star,
                            k_max=int(config["k_max"]),
                            eps0=float(config["epsilon"]),
                            chain_step=float(config["delta_chain"]),
                            delta0=float(config["delta0"]))
    out.write_csv("contraction.csv", ["k", "t", "sup_dist", "tv", "ratio"],
                  [[r.k, r.time, r.sup_dist, r.tv, r.ratio]
                   for r in res.record.rows])
    actions = res.pre_actions + [a for step in res.steps for a in step.actions]
    out.write_json("plan.json", {"tau": res.tau,
                                 "actions": [vars(a) for a in actions]})
    slope, intercept, r2 = res.record.loglog_fit()
    violations = [v for step in res.steps for v in step.violations]
    metrics = {
        "tau": res.tau,
        "deltas": [r.delta for r in res.record.rows],
        "ratios": [None if math.isnan(r.ratio) else r.ratio
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
    return metrics


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
    return metrics


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
    return {"sigmas": payload["sigmas"], "residual": payload["residual"]}


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
    return {"family": family, "branch": branch, "samples": samples}


_RUNNERS = {
    "evolve": _run_evolve,
    "counterexample": _run_evolve,
    "steer": _run_steer,
    "stabilize": _run_stabilize,
    "linear_control": _run_linear_control,
    "riemann": _run_riemann,
    "curves": _run_curves,
}


def _admission_gate(model, experiment):
    """Nonlinear control and census experiments require the structural
    hypotheses to hold on the declared admissible domain."""
    if model.kind == "linear":
        return
    if experiment not in ("steer", "stabilize", "counterexample"):
        return
    report = verify_hypotheses(model)
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
    out = _OutputSet(out_dir)   # makes out_dir with the first file
    metrics = _RUNNERS[config["experiment"]](config, model, out)
    manifest = {
        "schema": MANIFEST_ID,
        "config": config,
        "files": sorted(out.files),
        "metrics": metrics,
    }
    out.write_json("manifest.json", manifest)
    return manifest


def run_sweep(config, out_dir):
    """Run each variant of the config's sweep into a sweep_NNN subdirectory,
    in order, in this process."""
    return [run_scenario(_variant(config, overrides),
                         str(Path(out_dir) / f"sweep_{k:03d}"))
            for k, overrides in enumerate(config["sweep"])]
