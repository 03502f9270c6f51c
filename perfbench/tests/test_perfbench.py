"""Tests of the benchmark itself: input generators, tracer and span algebra.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_stats, self_times  # noqa: E402

ft = run.import_program()
SEEDS = (0, 1, 2, 7, 12345)


def _dump(requests):
    return json.dumps([[k, c, e] for k, c, e in requests], sort_keys=True)


@pytest.mark.parametrize("name", ["counterexample", "evolve_dense", "control_batch"])
def test_generators_are_deterministic_and_valid(name):
    wl = workloads.WORKLOADS[name]
    for seed in SEEDS:
        reqs = wl.requests(seed, ft)
        assert _dump(reqs) == _dump(wl.requests(seed, ft))
        for kind, config, _ in reqs:
            assert ft.scenarios.validate_config(config) == []
            model = ft.scenarios.build_model(config["model"])
            if kind == "evolve":
                init = config["initial"]
                states = [init["left"]] + [u for _, u in init["jumps"]]
                xs = [x for x, _ in init["jumps"]]
                assert len(xs) == 20 and all(0 < a < b < 1 for a, b in zip(xs, xs[1:]))
                for u in states:
                    assert model.in_domain(np.asarray(u))
                for ul, ur in zip(states, states[1:]):
                    dw = model.to_riemann(np.asarray(ur)) - model.to_riemann(np.asarray(ul))
                    assert np.max(np.abs(dw)) <= workloads.MAX_JUMP + 1e-12
                    assert workloads.MAX_JUMP < ft.riemann.DELTA_RIEMANN
            elif kind == "steer":
                for key in ("omega", "omega_prime"):
                    assert model.in_domain(np.asarray(config[key]))
            elif kind == "stabilize":
                assert config["initial"]["budget"] in workloads.STAB_BUDGETS
                assert config["epsilon"] == config["initial"]["budget"] / 8
    if name == "evolve_dense":
        configs = [_dump([r]) for r in wl.requests(0, ft)]
        assert len(configs) == 4 and len(set(configs)) == 4
    if name == "control_batch":
        kinds = [k for k, _, _ in wl.requests(0, ft)]
        assert kinds.count("steer") == 40 and kinds.count("stabilize") == 16


def test_table_riemann_generator_is_deterministic_and_valid():
    wl = workloads.WORKLOADS["table_riemann"]
    gas = ft.scenarios.build_model(workloads.WIDE_GAS)
    for seed in SEEDS[:2]:
        reqs = wl.requests(seed, ft)
        assert len(reqs) == 40
        assert _dump(reqs) == _dump(wl.requests(seed, ft))
        for _, config, sigma in reqs:
            assert ft.scenarios.validate_config(config) == []
            assert max(abs(s) for s in sigma) <= 0.1
            table = ft.scenarios.build_model(config["model"])
            ul, ur = (np.asarray(config["riemann"][k]) for k in ("ul", "ur"))
            assert table.in_domain(ul) and table.in_domain(ur)
            # the table flux is the gamma = 2 gas, whose chart measures the jump
            dw = gas.to_riemann(ur) - gas.to_riemann(ul)
            assert np.max(np.abs(dw)) < ft.riemann.DELTA_RIEMANN


def test_stratified_draws_one_value_per_stratum():
    xs = workloads.stratified(random.Random(4), 40, -0.1, 0.1)
    strata = sorted(int((x + 0.1) / 0.2 * 40) for x in xs)
    assert strata == list(range(40))
    assert xs != sorted(xs)


def test_gas_chart_matches_the_program():
    gas = ft.scenarios.build_model(workloads.WIDE_GAS)
    w_ref = workloads.gas_to_riemann([1.0, 0.0])     # the model's ref_state
    rng = random.Random(3)
    for _ in range(20):
        u = [rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3)]
        w = workloads.gas_to_riemann(u)
        assert np.allclose(np.subtract(w, w_ref), gas.to_riemann(np.asarray(u)),
                           rtol=0, atol=1e-12)
        assert np.allclose(workloads.gas_from_riemann(w), u, rtol=0, atol=1e-12)


def test_checks_reject_bad_outputs():
    assert workloads.check("evolve", {"metrics": {"dropped_mass": 1e-3}}, None)
    assert workloads.check("steer", {"metrics": {"fronts_final": 1,
                                                 "final_sup_dist": 0.0}}, None)
    assert workloads.check("riemann", {"metrics": {"residual": 0.0,
                                                   "sigmas": [0.1, 0.0]}},
                           [0.1, 1e-6])
    assert not workloads.check("riemann", {"metrics": {"residual": 0.0,
                                                       "sigmas": [0.1, 0.0]}},
                               [0.1, 1e-9])


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21, 10)
    # too few samples for a percentile above the median: the maximum
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail(list(range(20))) == (19, 100.0, 0)


def test_scaled_times_use_each_window_of_samples():
    k = 1e-4
    # a long request is its own window; short ones are pooled until the
    # window holds MIN_WINDOW_SAMPLES samples, and a short tail joins the last
    raw = [2.0, 0.1, 0.1, 0.1, 0.1, 0.1]
    counts = [30, 10, 10, 5, 25, 2]
    spents = [30 * 2 * k, 10 * k, 10 * k, 5 * k, 25 * 4 * k, 2 * 4 * k]
    scaled = hostspeed.scaled_times(k, raw, counts, spents)
    assert scaled == pytest.approx([1.0, 0.1, 0.1, 0.1, 0.025, 0.025])
    assert hostspeed.scaled_times(k, [0.5], [3], [3 * k]) == pytest.approx([0.5])
    with pytest.raises(RuntimeError):
        hostspeed.scaled_times(k, [0.01], [0], [0.0])


def test_sampler_samples_cpu_time_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.Sampler(hostspeed.numpy_kernel) as sampler:
        t_end = time.process_time() + 0.3
        while time.process_time() < t_end:
            pass
    count, spent = sampler.read()
    assert count >= 5 and spent > 0
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_setup_probe_reports_scaled_setup():
    median, scaled, raw = run.measure_setup(workloads.WORKLOADS["table_riemann"])
    assert len(scaled) == len(raw) == run.SETUP_PROBES
    assert median == statistics.median(scaled) > 0
    assert all(t > 0 for t in raw)


# -- traced run -------------------------------------------------------------------


def _small_requests(_rng, _ft):
    """A short evolve with collisions, two steers, one stabilize and one
    riemann solve: every layer but analysis, in about two seconds."""
    rng = random.Random(5)
    evolve = workloads.evolve_config(rng, n_jumps=10, size=0.04)
    steer = workloads.steer_configs(rng, 2)
    stab = workloads.stabilize_config(0.02)
    stab["k_max"] = 1
    table = workloads.WORKLOADS["table_riemann"].requests(9, ft)[0]
    return [("evolve", evolve, None),
            ("steer", steer[0], None),
            ("steer", steer[1], None),
            ("stabilize", stab, None),
            table]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    wl = workloads.Workload("small", [workloads.WIDE_GAS], _small_requests)
    scratch = tmp_path_factory.mktemp("traced")
    return run.traced_run(ft, wl, 0, str(scratch))


def test_traced_run_matches_untraced_manifests(traced):
    assert traced.attempted == 5
    assert traced.failures == {}
    assert all(m is not None for m in traced.manifests)
    for key, _fields in run.PER_LAYER_STATS:
        assert key.split(".")[0] in run.LAYERS


def test_self_times_sum_to_root_duration_per_request(traced):
    spans = traced.tracer.arrays()
    selft = self_times(spans)
    roots = np.nonzero(spans["parent"] < 0)[0]
    assert len(roots) == 5
    for root in roots:
        req = spans["request"][root]
        total = float(np.sum(selft[spans["request"] == req]))
        root_dur = spans["end"][root] - spans["start"][root]
        assert math.isclose(total, root_dur, rel_tol=1e-9, abs_tol=1e-9)


def test_traced_event_and_solve_counts(traced):
    metrics = traced.metrics
    # tracking.events counts the records of every simulation; only the
    # evolve manifest reports an event count
    manifest_events = sum(m["metrics"]["events"] for m in traced.manifests
                          if "events" in m["metrics"])
    assert metrics["tracking.events"] > manifest_events > 0
    assert metrics["riemann.solve_riemann.calls"] >= metrics["tracking.collisions"] > 0
    assert metrics["newton.residual_evals"] > metrics["newton.newton_solve.calls"] > 0
    assert metrics["control.stabilization_step.calls"] == 1
    assert metrics["analysis.density_series.total_s"] == 0.0


def test_events_equal_manifest_events_on_evolve(tmp_path):
    wl = workloads.Workload(
        "evolve", [workloads.WIDE_GAS],
        lambda rng, _ft: _small_requests(rng, _ft)[:1])
    res = run.traced_run(ft, wl, 0, str(tmp_path))
    assert res.failures == {}
    assert res.metrics["tracking.events"] == sum(
        m["metrics"]["events"] for m in res.manifests)


def test_layer_stats_do_not_double_count_delegates():
    names = ["bench.request", "tracking.glimm_functionals",
             "tracking.Simulation.glimm_functionals"]
    spans = {"name": np.array([0, 1, 2]), "start": np.array([0.0, 1.0, 2.0]),
             "end": np.array([10.0, 5.0, 4.0]), "parent": np.array([-1, 0, 1]),
             "request": np.zeros(3, dtype=int), "error": np.zeros(3, dtype=int)}
    stats = layer_stats(names, spans)
    g = stats["tracking.glimm_functionals"]
    assert g["calls"] == 1 and g["total_s"] == 4.0 and g["self_s"] == 4.0
    assert stats["bench.request"]["self_s"] == 6.0


def test_audit_catches_an_unpatched_binding():
    tracer = Tracer(ft)
    tracer.install()
    try:
        assert tracer.audit() == []
        wrapped = ft.tracking.solve_riemann
        original = wrapped.__wrapped__
        ft.tracking.solve_riemann = original
        try:
            assert tracer.audit() == ["fronttrack.tracking.solve_riemann"]
        finally:
            ft.tracking.solve_riemann = wrapped
        method = ft.models.FluxModel.__dict__["check_domain"]
        ft.models.FluxModel.check_domain = method.__wrapped__
        try:
            assert tracer.audit() == ["fronttrack.models.FluxModel.check_domain"]
        finally:
            ft.models.FluxModel.check_domain = method
    finally:
        tracer.uninstall()
    assert tracer.audit() != []     # uninstalled: every original is back
    assert ft.riemann.solve_riemann is ft.tracking.solve_riemann
    assert not hasattr(ft.tracking.solve_riemann, "__wrapped__")
