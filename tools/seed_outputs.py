"""Write the outputs of every seed-1 request of the benchmark workloads, and
of the fixed requests that reach the writers those never run.

Usage: python tools/seed_outputs.py OUT

Each request of perfbench/workloads.py runs through scenarios.run_scenario
into OUT/<workload>/<index>, and each request of EXTRA into
OUT/extra/<name>, so two runs, or two checkouts, compare with ``diff -r``.
The extra requests are a gas and a custom-table ``curves`` run, a 6-jump
custom-table ``evolve``, whose rarefaction fans integrate chartless curves,
a ``riemann`` run on a 3x3 custom table, whose speeds come from LAPACK, and
one on the p-system table, whose exponents are negative, a
2-variant gas ``sweep`` on one worker, a gas ``steer`` whose two states
are equal, so it makes no hop, a 2x2 and a 3x3 linear ``steer``, the
second injecting two families at a time at x = b, a
``linear_control`` run, a ``stabilize`` run that starts far from its
target, so its steering pre-phase runs, and a ``counterexample`` whose
initial jumps hold a rarefaction, so the density bins and the kappa fit
see positive atoms; ``fronttrack plots`` then
writes its .dat files into copies of the first counterexample and
stabilize runs, OUT/extra/plots_<kind>.
A request that fails stops the script with its traceback.
"""

import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fronttrack.cli  # noqa: E402
import fronttrack.riemann  # noqa: E402
import fronttrack.scenarios  # noqa: E402
from workloads import (  # noqa: E402
    COUNTEREXAMPLE, STAB_GAS, WORKLOADS, evolve_config,
)

_GAS = {"kind": "gas", "K": 1.0, "gamma": 2.0, "box": [[0.5, 1.5], [-0.4, 0.4]]}
_TABLE = {"kind": "custom-table",
          "terms": [[[1, [1, 1]]], [[0.5, [0, 2]], [1, [1, 0]]]],
          "p": 1, "box": [[0.5, 1.5], [-0.4, 0.4]]}
# lower-triangular Jacobian, speeds -2 + u1 < u1 + u2 < 2 + u3
_TABLE3 = {"kind": "custom-table",
           "terms": [[[-2.0, [1, 0, 0]], [0.5, [2, 0, 0]]],
                     [[0.5, [0, 2, 0]], [1.0, [1, 1, 0]]],
                     [[2.0, [0, 0, 1]], [0.5, [0, 0, 2]], [1.0, [1, 1, 0]]]],
           "p": 1, "box": [[-0.5, 0.5]] * 3}
# f = (-v, u^-2): the p-system with p(u) = u^-2
_PSYSTEM = {"kind": "custom-table", "terms": [[[-1, [0, 1]]], [[1, [-2, 0]]]],
            "p": 1, "box": [[0.5, 1.5], [-0.5, 0.5]]}
_LINEAR = {"kind": "linear", "A": [[-1.0, 0.0], [0.0, 1.0]]}
EXTRA = {
    "curves_gas": {"experiment": "curves", "model": _GAS,
                   "curves": {"u0": [1.0, 0.0], "samples": 5}},
    "curves_table": {"experiment": "curves", "model": _TABLE,
                     "curves": {"u0": [1.0, 0.0], "samples": 5}},
    "evolve_table": {**evolve_config(random.Random(1), n_jumps=6),
                     "model": _TABLE, "epsilon": 0.02},
    "riemann_table3": {"experiment": "riemann", "model": _TABLE3,
                       "riemann": {"ul": [0.1, 0.2, 0.0],
                                   "ur": [0.15, 0.17, 0.04]}},
    # the p-system with p(u) = u^-2: the only table of negative exponents
    "riemann_table_psystem": {"experiment": "riemann", "model": _PSYSTEM,
                              "riemann": {"ul": [1.0, 0.0],
                                          "ur": [1.1, 0.05]}},
    "sweep_gas": {"experiment": "curves", "model": _GAS,
                  "curves": {"u0": [1.0, 0.0], "samples": 3}, "workers": 1,
                  "sweep": [{"curves": {"u0": [1.1, 0.05], "samples": 3}},
                            {"curves": {"u0": [0.9, -0.05], "samples": 4}}]},
    # omega = omega_prime: a steer with no hops, whose plan is empty
    "steer_identity": {"experiment": "steer",
                       "model": {**_GAS, "box": [[0.5, 1.5], [-0.6, 0.6]]},
                       "domain": [0.0, 1.0], "omega": [1.0, 0.0],
                       "omega_prime": [1.0, 0.0]},
    "steer_linear": {"experiment": "steer",
                     "model": {"kind": "linear", "A": [[-1.0, 0.2], [0.1, 1.0]]},
                     "domain": [0.0, 1.0], "omega": [0.0, 0.0],
                     "omega_prime": [0.3, -0.2]},
    # p = 2: each hop's x = b split injects a group of two families
    "steer_linear3": {"experiment": "steer",
                      "model": {"kind": "linear",
                                "A": [[-2.0, 0.1, 0.0], [0.0, -1.0, 0.2],
                                      [0.0, 0.0, 1.0]]},
                      "domain": [0.0, 1.0], "omega": [0.0, 0.0, 0.0],
                      "omega_prime": [0.3, -0.2, 0.1]},
    "linear_control": {"experiment": "linear_control", "model": _LINEAR,
                       "domain": [0.0, 1.0], "T": 1.0,
                       "phi": {"xs": [0.5], "values": [[0.0, 0.0], [0.1, 0.2]]},
                       "psi": {"xs": [], "values": [[0.3, -0.1]]}},
    "stabilize_far": {"experiment": "stabilize", "model": STAB_GAS,
                      "domain": [0.0, 1.0],
                      "initial": {"kind": "dense_shocks", "n": 7, "budget": 0.02,
                                  "base": [1.03, 0.96]},
                      "u_star": [1.0, 0.98], "epsilon": 0.005, "k_max": 4,
                      "delta0": 0.05},
    # family-1 strengths -0.01, +0.015 and -0.01 from the left state
    "counterexample_mixed": {
        "experiment": "counterexample", "model": COUNTEREXAMPLE["model"],
        "domain": COUNTEREXAMPLE["domain"], "horizon": 1.0,
        "initial": {"kind": "jumps", "left": [1.0, 0.96], "jumps": [
            [0.03, [1.005006251953122, 0.9550000019482513]],
            [0.06, [0.9975015644458161, 0.9625000019482514]],
            [0.09, [1.002501566406253, 0.9575000039013764]]]}},
}
PLOTTED = ("counterexample", "stabilize")   # request kinds plots reads


def main(out):
    plotted = {}
    for name, workload in WORKLOADS.items():
        for i, (kind, config, _) in enumerate(workload.requests(1, fronttrack)):
            run = Path(out, name, f"{i:03d}")
            fronttrack.scenarios.run_scenario(config, str(run))
            if kind in PLOTTED:
                plotted.setdefault(kind, run)
    for name, config in EXTRA.items():
        run = (fronttrack.scenarios.run_sweep if "sweep" in config
               else fronttrack.scenarios.run_scenario)
        run({"schema": "scenario-v1", **config}, str(Path(out, "extra", name)))
    for kind, run in plotted.items():
        copy = Path(out, "extra", f"plots_{kind}")
        shutil.copytree(run, copy)
        if fronttrack.cli.main(["plots", "--out", str(copy), "--quiet"]) != 0:
            raise SystemExit(f"plots failed on {copy}")


if __name__ == "__main__":
    main(sys.argv[1])
