"""Outside-in tracer for the fronttrack layers.

The tracer replaces, on every ``fronttrack`` module that binds them, the
public functions of the layer modules and the public methods of the
Simulation and model classes with wrappers that record one span per call:
name, start, end, parent span, request id and whether the call raised.
``from .riemann import solve_riemann`` copies a binding into ``tracking`` and
``scenarios``; patching only the defining module would miss those calls, so
every module's namespace is rebound and :func:`Tracer.audit` proves that no
unwrapped original is left anywhere in the package.

Spans live in flat typed arrays while the program runs and are reduced to
per-layer metrics (and optionally written out) when the benchmark ends.
"""

import functools
import os
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("models", "curves", "newton", "riemann", "tracking", "control",
          "analysis", "scenarios")
# Classes whose public methods are traced, by module.  Other classes
# (snapshots, eigenstructures, boxes) are plain data whose cost stays in the
# caller's self time.
TRACED_CLASSES = {
    "models": ("FluxModel", "LinearModel", "GasModel", "TableModel"),
    "tracking": ("Simulation",),
    "scenarios": ("_OutputSet",),
}
ROOT_NAME = "bench.request"


def metric_key(name):
    """``module.Class.method`` and ``module.function`` -> ``module.attr``;
    the writer methods of scenarios._OutputSet share ``scenarios.write``."""
    parts = name.split(".")
    if parts[:2] == ["scenarios", "_OutputSet"]:
        return "scenarios.write"
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Installs span-recording wrappers into the package and collects spans."""

    def __init__(self, fronttrack):
        self.ft = fronttrack
        self.names = [ROOT_NAME]
        self.name_ids = {ROOT_NAME: 0}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.error = array("b")
        self.stack = []
        self.request_id = -1
        self.residual_evals = 0
        self._wrappers = {}      # id(original) -> wrapper
        self._originals = {}     # id(original) -> original
        self._patched = []       # (namespace owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self, sid):
        idx = len(self.start)
        self.span_name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.error.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def request_span(self, request_id, call):
        """Run ``call()`` as the root span of request ``request_id``."""
        self.request_id = request_id
        idx = self._open(0)
        try:
            return call()
        except BaseException:
            self.error[idx] = 1
            raise
        finally:
            self._close(idx)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name):
        sid = self._name_id(name)
        tracer = self
        # newton_solve gets its residual function as the first argument;
        # wrapping that too counts every residual evaluation, the ones made
        # by fd_jacobian included
        counts_residuals = name == "newton.newton_solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_residuals:
                f = args[0]

                def counted(x):
                    tracer.residual_evals += 1
                    return f(x)
                args = (counted,) + args[1:]
            idx = tracer._open(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer._close(idx)
        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(original, qualified name) for every traced function and method."""
        out = []
        for layer in LAYERS:
            mod = getattr(self.ft, layer)
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType)
                        and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    out.append((val, f"{layer}.{attr}"))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, val in vars(cls).items():
                    if isinstance(val, types.FunctionType) and not attr.startswith("_"):
                        out.append((val, f"{layer}.{cls_name}.{attr}"))
        return out

    def _namespaces(self):
        """Every module and class namespace of the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fronttrack" and not mod_name.startswith("fronttrack."):
                continue
            yield mod
            for val in list(vars(mod).values()):
                if isinstance(val, type) and val.__module__ == mod_name:
                    yield val

    def install(self):
        for fn, name in self._targets():
            self._originals[id(fn)] = fn
            self._wrappers[id(fn)] = self._wrap(fn, name)
        for owner in self._namespaces():
            for attr, val in list(vars(owner).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None and self._originals[id(val)] is val:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, val))
        bad = self.audit()
        if bad:
            self.uninstall()
            raise RuntimeError("unwrapped bindings after install: " + ", ".join(bad))

    def uninstall(self):
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def audit(self):
        """Bindings in the package that still hold an unwrapped original."""
        bad = []
        for owner in self._namespaces():
            where = owner.__name__ if isinstance(owner, types.ModuleType) \
                else f"{owner.__module__}.{owner.__qualname__}"
            for attr, val in vars(owner).items():
                if val is not None and self._originals.get(id(val)) is val:
                    bad.append(f"{where}.{attr}")
        return bad

    # -- reduction ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def write(self, path):
        """Write every span, with the name table, as a compressed .npz."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Calls are synchronous, so children never overlap and the covered time
    is the sum of the children's durations.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def layer_stats(names, spans):
    """Per metric key: calls, errors, total_s and self_s.

    A span nested directly in a span of the same key (a module-level
    delegate calling the method of the same name) is not counted as a
    second call, and its time is not added twice to total_s.
    """
    keys = [metric_key(n) for n in names]
    key_ids = {k: i for i, k in enumerate(sorted(set(keys)))}
    span_key = np.array([key_ids[k] for k in keys], dtype=np.int64)[spans["name"]]
    parent = spans["parent"]
    parent_key = np.where(parent >= 0, span_key[np.maximum(parent, 0)], -1)
    outer = span_key != parent_key
    dur = spans["end"] - spans["start"]
    selft = self_times(spans)
    m = len(key_ids)
    calls = np.bincount(span_key[outer], minlength=m)
    errors = np.bincount(span_key[outer & (spans["error"] == 1)], minlength=m)
    total = np.bincount(span_key[outer], weights=dur[outer], minlength=m)
    self_s = np.bincount(span_key, weights=selft, minlength=m)
    return {k: {"calls": int(calls[i]), "errors": int(errors[i]),
                "total_s": float(total[i]), "self_s": float(self_s[i])}
            for k, i in key_ids.items()}


def calibration_ok_ratio(names, spans):
    """Accepted samples over attempted samples of
    calibrate_interaction_constant.

    A sample is accepted when its direct solve_riemann call returns; the
    calibration loop catches the error of any direct lax_curve or
    solve_riemann call and draws again, so each raising direct child is one
    rejected attempt.
    """
    ids = {n: i for i, n in enumerate(names)}
    cal = ids.get("tracking.calibrate_interaction_constant")
    if cal is None:
        return 0.0
    is_cal = spans["name"] == cal
    parent = spans["parent"]
    direct = (parent >= 0) & is_cal[np.maximum(parent, 0)]
    solve = spans["name"] == ids.get("riemann.solve_riemann", -1)
    lax = spans["name"] == ids.get("curves.lax_curve", -1)
    failed = spans["error"] == 1
    accepted = int(np.sum(direct & solve & ~failed))
    caught = int(np.sum(direct & (solve | lax) & failed))
    attempts = accepted + caught
    return accepted / attempts if attempts else 0.0
