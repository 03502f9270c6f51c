"""Seeded request generators and per-request output checks.

Each workload turns a seed into a list of scenario configs (plain JSON
values; the program sees nothing else) and checks every returned manifest
against invariants and tolerances, never against file digests, so an exact
optimisation that moves the last bit of a result is not counted as a failure.

Gas states are generated in closed form from the Riemann chart of the
isentropic gas with K = 1, gamma = 2 (w = v -/+ 2 sqrt(rho)), so the inputs do
not depend on the code under test.  Only ``table_riemann`` calls into the
program to build its inputs: its right states are ``compose_waves(ul, sigma)``
on the table model, which is what makes the strength round trip checkable.
"""

import json
import math
import random

WIDE_BOX = [[0.5, 1.5], [-0.6, 0.6]]
# Largest Riemann-coordinate jump between adjacent generated states; well
# inside the solver radius riemann.DELTA_RIEMANN = 0.3.
MAX_JUMP = 0.1

COUNTEREXAMPLE = {
    "schema": "scenario-v1",
    "experiment": "counterexample",
    "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
              "box": [[0.96, 1.08], [0.90, 1.0]],
              "ref_state": [1.0, 0.995], "min_speed": 0.004},
    "domain": [0.0, 0.13],
    "initial": {"kind": "dense_shocks", "n": 63, "budget": 0.05,
                "base": [1.0, 0.995], "level_decay": 8.0},
    "epsilon": 0.01,
    "horizon": 2.0,
}

WIDE_GAS = {"kind": "gas", "K": 1.0, "gamma": 2.0, "box": WIDE_BOX}
STAB_GAS = {"kind": "gas", "K": 1.0, "gamma": 2.0,
            "box": [[0.95, 1.10], [0.88, 1.00]],
            "ref_state": [1.0, 0.98], "min_speed": 0.002}
STAB_TARGET = [1.0, 0.98]
STAB_BUDGETS = (0.08, 0.04, 0.02, 0.01)
# Custom-table flux equal to the gamma = 2 gas: (rho v, v^2/2 + rho).
GAS_TABLE = {"kind": "custom-table",
             "terms": [[[1, [1, 1]]], [[0.5, [0, 2]], [1, [1, 0]]]],
             "p": 1, "box": WIDE_BOX}
TABLE_LEFT = [1.0, 0.0]


def gas_to_riemann(u):
    rho, v = u
    s = 2.0 * math.sqrt(rho)
    return [v - s, v + s]


def gas_from_riemann(w):
    s = 0.5 * (w[1] - w[0])
    return [(0.5 * s) ** 2, 0.5 * (w[0] + w[1])]


def stratified(rng, n, lo, hi):
    """n uniform draws from [lo, hi], one in each of n equal strata, in a
    seeded order: the values stay random while their spread, and so the
    work mix of a request list, hardly depends on the seed."""
    width = (hi - lo) / n
    out = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(out)
    return out


def evolve_config(rng, n_jumps=20, size=0.08):
    """``n_jumps`` random jumps on the wide gas box.

    Every jump moves each Riemann coordinate by exactly ``size`` (at most
    MAX_JUMP), and each pair of consecutive jumps moves it once up and once
    down, in a seeded order; the jumps are evenly spaced.  Fixing the sizes,
    the sign balance and the spacing fixes how many fronts the initial data
    makes (rarefactions fan into size/epsilon pieces) and keeps every state
    within ``size`` of the start, so the work per request depends little on
    the seed while the order of interactions still does.
    """
    signs = []
    for _ in range(2):
        col = []
        for _ in range(n_jumps // 2):
            col += rng.choice(([1.0, -1.0], [-1.0, 1.0]))
        signs.append(col)
    w = gas_to_riemann([1.0, 0.0])
    states = [gas_from_riemann(w)]
    for k in range(n_jumps):
        w = [w[i] + size * signs[i][k] for i in range(2)]
        states.append(gas_from_riemann(w))
    xs = [(k + 0.5) / n_jumps for k in range(n_jumps)]
    return {
        "schema": "scenario-v1",
        "experiment": "evolve",
        "model": dict(WIDE_GAS),
        "domain": [0.0, 1.0],
        "initial": {"kind": "jumps", "left": states[0],
                    "jumps": [[x, u] for x, u in zip(xs, states[1:])]},
        "epsilon": 0.01,
        "horizon": 0.1,
    }


def steer_configs(rng, n):
    """n steering requests between states drawn from the box of the
    steering acceptance test, each coordinate stratified over the n."""
    lo, hi = [0.95, -0.05], [1.10, 0.05]
    cols = [stratified(rng, n, lo[k % 2], hi[k % 2]) for k in range(4)]
    return [{
        "schema": "scenario-v1",
        "experiment": "steer",
        "model": dict(WIDE_GAS),
        "domain": [0.0, 1.0],
        "omega": [cols[0][j], cols[1][j]],
        "omega_prime": [cols[2][j], cols[3][j]],
        "epsilon": 0.01,
        "delta_chain": 0.05,
    } for j in range(n)]


def stabilize_config(budget):
    return {
        "schema": "scenario-v1",
        "experiment": "stabilize",
        "model": dict(STAB_GAS),
        "domain": [0.0, 1.0],
        "initial": {"kind": "dense_shocks", "n": 15, "budget": budget,
                    "base": list(STAB_TARGET)},
        "u_star": list(STAB_TARGET),
        "epsilon": budget / 8.0,
        "k_max": 3,
    }


# -- workloads ---------------------------------------------------------------


class Workload:
    """A named, seeded request generator.

    ``models`` are the model blocks whose construction counts as set-up.
    ``events`` says whether requests run a front-tracking simulation.
    """

    def __init__(self, name, models, make, events=True):
        self.name = name
        self.models = models
        self._make = make
        self.events = events

    def requests(self, seed, fronttrack=None):
        """The seed's request list: (kind, config, expected) triples.

        ``expected`` is data the check needs that is not part of the config
        (the drawn strengths of a riemann request); the program never sees it.
        """
        return self._make(random.Random(seed), fronttrack)


def _counterexample(_rng, _ft):
    # the README config verbatim: deterministic, the seed is not used
    return [("counterexample", json.loads(json.dumps(COUNTEREXAMPLE)), None)]


def _evolve_dense(rng, _ft, n=4):
    # The order of interactions, which the seed sets, moves a request's
    # event count by up to 15 %; n configs per seed average that out of
    # the run's median while a 24 s run still sends each about once.
    return [("evolve", evolve_config(rng), None) for _ in range(n)]


def _control_batch(rng, _ft):
    reqs = [("steer", c, None) for c in steer_configs(rng, 40)]
    # each budget four times, so the seed changes the order, not the mix
    reqs += [("stabilize", stabilize_config(b), None) for b in STAB_BUDGETS * 4]
    rng.shuffle(reqs)
    return reqs


def _table_riemann(rng, ft, n=40):
    """Strengths drawn from U(-0.1, 0.1), stratified over the n requests;
    the right state is the table model's own composition of them."""
    model = ft.scenarios.build_model(GAS_TABLE)
    cols = [stratified(rng, n, -0.1, 0.1) for _ in range(2)]
    out = []
    for sigma in zip(*cols):
        ur = ft.riemann.compose_waves(model, TABLE_LEFT, sigma)
        config = {"schema": "scenario-v1", "experiment": "riemann",
                  "model": dict(GAS_TABLE),
                  "riemann": {"ul": list(TABLE_LEFT),
                              "ur": [float(x) for x in ur]}}
        out.append(("riemann", config, list(sigma)))
    return out


WORKLOADS = {
    "counterexample": Workload("counterexample", [COUNTEREXAMPLE["model"]],
                               _counterexample),
    "evolve_dense": Workload("evolve_dense", [WIDE_GAS], _evolve_dense),
    "control_batch": Workload("control_batch", [WIDE_GAS, STAB_GAS],
                              _control_batch),
    "table_riemann": Workload("table_riemann", [GAS_TABLE], _table_riemann,
                              events=False),
}


# -- output checks ---------------------------------------------------------------


def check(kind, manifest, expected):
    """Reasons the manifest is wrong; an empty list means it passed."""
    m = manifest["metrics"]
    bad = []
    if kind == "counterexample":
        # returning at all means the V + c0 Q check inside the run passed
        if not m["tv_retention"] > 0.99:
            bad.append(f"tv_retention {m['tv_retention']}")
        if m["sign_compliant"] + m["sign_unresolved"] != m["same_family_collisions"]:
            bad.append("sign census does not cover every same-family collision")
    elif kind == "evolve":
        if m["dropped_mass"] != 0:
            bad.append(f"dropped_mass {m['dropped_mass']}")
    elif kind == "steer":
        if m["fronts_final"] != 0 or not m["final_sup_dist"] < 1e-6:
            bad.append(f"steer ended with {m['fronts_final']} fronts at "
                       f"distance {m['final_sup_dist']}")
    elif kind == "stabilize":
        if m["failure"] or m["violations"] != 0:
            bad.append(f"stabilize failure {m['failure']!r}, "
                       f"{m['violations']} violations")
    elif kind == "riemann":
        if not m["residual"] <= 1e-10:
            bad.append(f"riemann residual {m['residual']}")
        err = max(abs(a - b) for a, b in zip(m["sigmas"], expected))
        if not err < 1e-8:
            bad.append(f"strength round trip error {err}")
    else:
        bad.append(f"unknown request kind {kind}")
    return bad
