"""fronttrack benchmark: whole scenario runs, timed end to end, and a traced
run that breaks the same requests down by package layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``fronttrack`` from
``src/`` of that checkout and refuses to run without it.

Load is a closed loop: one client in this one process sends each request
(one scenario config, one ``scenarios.run_scenario`` call into a fresh
output directory) only after the previous one has returned.  Each request is
checked (see workloads.check) and has a wall-time budget; a request that
raises, fails its check or overruns its budget counts as failed.

``--trace 0`` sends requests for ``--seconds`` seconds and reports the
end-to-end metrics.  Their times are scaled to a fixed host speed measured
while they run (see hostspeed), so that neighbours on a shared host do not
move them; the raw times are printed next to them.  ``--trace 1`` runs
the seed's request list exactly once untraced and once traced, so counts
repeat exactly between runs, checks that both passes produce the same
manifest metrics, and reports per-layer metrics plus the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# numpy links scipy-openblas, which would start one thread per core; the
# benchmark measures the single-threaded program.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from tracer import LAYERS, Tracer, calibration_ok_ratio, layer_stats  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_PROBES = 5            # fresh interpreters per run; setup_s is their median
SETUP_PROBE_TIMEOUT_S = 20.0
REQUEST_BUDGET_S = 60.0     # about 20x the slowest request at the baseline
TRACE_DEADLINE_S = 150.0    # a traced run starts no request after this

END_TO_END_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
                    "events_per_s": "1/s", "peak_rss_mb": "MB"}


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside an overrunning request.  A BaseException so
    that the program's own ``except Exception`` retry loops cannot swallow it."""


def _on_alarm(_signum, _frame):
    raise RequestTimeout()


def import_program():
    """Import fronttrack from this checkout's src/, never from elsewhere."""
    if not (SRC / "fronttrack" / "__init__.py").is_file():
        sys.exit(f"error: no fronttrack source at {SRC}")
    sys.path.insert(0, str(SRC))
    import fronttrack
    import fronttrack.riemann
    import fronttrack.scenarios
    import fronttrack.tracking
    if Path(fronttrack.__file__).resolve().parent != SRC / "fronttrack":
        sys.exit(f"error: imported fronttrack from {fronttrack.__file__}")
    return fronttrack


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload):
    """Median over fresh interpreters of import + build_model time, scaled
    to the reference host speed; returns (median, scaled, raw)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           json.dumps(workload.models)]
    raw, counts, spents = [], [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_PROBE_TIMEOUT_S, check=True)
        t, count, spent = out.stdout.strip().splitlines()[-1].split()
        raw.append(float(t))
        counts.append(int(count))
        spents.append(float(spent))
    times = hostspeed.scaled_times(hostspeed.PYTHON_NOMINAL_S,
                                   raw, counts, spents)
    return statistics.median(times), times, raw


class SimCollector:
    """Keeps the Simulations a request creates, to count its events.

    Wraps Simulation.__init__ only, one extra call per simulation, so it is
    installed in timed runs as well: a stabilize request runs several
    simulations and its manifest reports no event count.
    """

    def __init__(self, tracking):
        self.cls = tracking.Simulation
        self.original = self.cls.__init__
        self.sims = []

    def __enter__(self):
        original, sims = self.original, self.sims

        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sims.append(sim)
        self.cls.__init__ = init
        return self

    def __exit__(self, *exc):
        self.cls.__init__ = self.original

    def take(self):
        sims, self.sims[:] = list(self.sims), []
        return sims


def run_request(ft, kind, config, expected, out_dir, wrap=None, sampler=None):
    """One closed-loop request.  Returns (seconds, manifest or None, error,
    samples); with a host-speed sampler, seconds leave out the sampler's own
    time and samples is its (count, kernel seconds) during the request."""
    call = lambda: ft.scenarios.run_scenario(config, out_dir)  # noqa: E731
    if wrap is not None:
        call = wrap(call)
    before = sampler.read() if sampler is not None else (0, 0.0)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_BUDGET_S)
    t0 = time.perf_counter()
    try:
        manifest = call()
        error = None
    except RequestTimeout:
        manifest, error = None, f"exceeded the {REQUEST_BUDGET_S:g} s budget"
    except Exception as exc:  # a failed request is counted, not fatal
        manifest, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = sampler.read() if sampler is not None else (0, 0.0)
    samples = (after[0] - before[0], after[1] - before[1])
    if manifest is not None:
        bad = check(kind, manifest, expected)
        if bad:
            error = "; ".join(bad)
    return elapsed - samples[1], manifest, error, samples


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).

    Below 21 samples that percentile would lie under the median, so the
    maximum is reported instead, with 0 samples beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    idx = n - 11 if n >= 21 else n - 1
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def prepare(ft, workload, seed):
    requests = workload.requests(seed, ft)
    for kind, config, _ in requests:
        diags = ft.scenarios.validate_config(config)
        if diags:
            raise RuntimeError(f"generated {kind} config is invalid: {diags}")
    return requests


def timed_run(ft, workload, seed, seconds, scratch):
    setup_s, setup_all, setup_raw = measure_setup(workload)
    requests = prepare(ft, workload, seed)
    raw, counts, spents, events, failures = [], [], [], 0, {}
    sampler = hostspeed.Sampler(hostspeed.numpy_kernel)
    with SimCollector(ft.tracking) as sims, sampler:
        t_end = time.perf_counter() + seconds
        i = 0
        while not raw or time.perf_counter() < t_end:
            kind, config, expected = requests[i % len(requests)]
            out_dir = tempfile.mkdtemp(dir=scratch)
            dt, _manifest, error, (count, spent) = run_request(
                ft, kind, config, expected, out_dir, sampler=sampler)
            shutil.rmtree(out_dir)
            raw.append(dt)
            counts.append(count)
            spents.append(spent)
            events += sum(len(sim.records) for sim in sims.take())
            if error:
                failures[i] = f"request {i} ({kind}): {error}"
            i += 1
    latencies = hostspeed.scaled_times(hostspeed.NUMPY_NOMINAL_S,
                                       raw, counts, spents)
    if not workload.events:
        events = len(latencies)       # one Riemann solve per request
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "events_per_s": events / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_all)} fresh interpreters "
                   + " ".join(f"{t:.4f}" for t in setup_all)
                   + "; raw " + " ".join(f"{t:.4f}" for t in setup_raw),
        "latency_p50_s": f"n={len(latencies)}; raw {statistics.median(raw):.6g} s",
        "latency_tail_s": f"p{pct:.1f}, {beyond} samples beyond, n={len(latencies)}",
        "events_per_s": (f"{events} events" if workload.events
                         else f"{events} Riemann solves (no simulation)")
                        + f"; raw {events / sum(raw):.6g} 1/s",
    }
    speed = hostspeed.scale_factor(hostspeed.NUMPY_NOMINAL_S,
                                   sum(counts), sum(spents))
    print(f"host speed: raw times x {speed:.4f} on average "
          f"({sum(counts)} kernel samples)")
    return metrics, notes, len(latencies), failures


Traced = collections.namedtuple(
    "Traced", "metrics attempted failures tracer manifests")


def _fail(failures, i, message):
    failures[i] = f"{failures[i]}; {message}" if i in failures else message


def traced_run(ft, workload, seed, scratch):
    """The seed's request list once untraced, then once traced."""
    requests = prepare(ft, workload, seed)
    deadline = time.perf_counter() + TRACE_DEADLINE_S
    failures = {}
    plain, plain_s = [], 0.0
    traced, traced_s = [], 0.0
    events = peak_fronts = history_bytes = files = nbytes = collisions = 0
    tracer = Tracer(ft)
    with SimCollector(ft.tracking) as sims:
        for i, (kind, config, expected) in enumerate(requests):
            out_dir = tempfile.mkdtemp(dir=scratch)
            dt, manifest, error, _ = run_request(ft, kind, config, expected, out_dir)
            shutil.rmtree(out_dir)
            sims.take()
            plain.append(manifest)
            plain_s += dt
            if error:
                _fail(failures, i, f"untraced request {i} ({kind}): {error}")
        tracer.install()
        try:
            for i, (kind, config, expected) in enumerate(requests):
                if time.perf_counter() > deadline:
                    _fail(failures, i, f"traced request {i} not started before "
                                       f"the {TRACE_DEADLINE_S:g} s deadline")
                    traced.append(None)
                    continue
                out_dir = tempfile.mkdtemp(dir=scratch)
                dt, manifest, error, _ = run_request(
                    ft, kind, config, expected, out_dir,
                    wrap=lambda call, i=i: lambda: tracer.request_span(i, call))
                for path in Path(out_dir).rglob("*"):
                    if path.is_file():
                        files += 1
                        nbytes += path.stat().st_size
                shutil.rmtree(out_dir)
                for sim in sims.take():
                    events += len(sim.records)
                    collisions += sum(r.kind == "collision" for r in sim.records)
                    peak_fronts = max([peak_fronts] + [s.n_fronts for s in sim.history])
                    history_bytes += sum(
                        sum(a.nbytes for a in (s.ids, s.xs, s.families, s.sigmas,
                                               s.speeds, s.generations, s.states))
                        for s in sim.history)
                traced.append(manifest)
                traced_s += dt
                if error:
                    _fail(failures, i, f"traced request {i} ({kind}): {error}")
            bad = tracer.audit()
            if bad:
                raise RuntimeError("unwrapped bindings during the traced run: "
                                   + ", ".join(bad))
        finally:
            tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a is not None and b is not None and \
                json.dumps(a["metrics"], sort_keys=True) != \
                json.dumps(b["metrics"], sort_keys=True):
            _fail(failures, i, f"request {i}: traced manifest metrics differ")

    spans = tracer.arrays()
    stats = layer_stats(tracer.names, spans)
    zero = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for key, fields in PER_LAYER_STATS:
        for field in fields:
            metrics[f"{key}.{field}"] = stats.get(key, zero)[field]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in stats.items() if k.split(".")[0] == layer)
    metrics.update({
        "tracking.events": events,
        "tracking.peak_fronts": peak_fronts,
        "tracking.history_bytes": history_bytes,
        "tracking.collisions": collisions,
        "tracking.calibrate_interaction_constant.ok_ratio":
            calibration_ok_ratio(tracer.names, spans),
        "newton.residual_evals": tracer.residual_evals,
        "scenarios.files_written": files,
        "scenarios.bytes_written": nbytes,
        "trace.spans": len(spans["start"]),
        "trace.request_s": traced_s,
        "trace.untraced_request_s": plain_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s > 0 else 0.0,
    })
    return Traced(metrics, len(requests), failures, tracer, plain)


# (metric key, stats reported) for the traced run; every key is
# <module>.<function> as the tracer names it.
PER_LAYER_STATS = (
    ("tracking.glimm_functionals", ("calls", "self_s")),
    ("tracking.next_event", ("calls", "self_s")),
    ("tracking.snapshot", ("calls", "self_s")),
    ("riemann.solve_riemann", ("calls", "self_s", "errors")),
    ("curves.shock_curve", ("calls", "self_s")),
    ("curves.rarefaction_curve", ("calls", "self_s")),
    ("curves.lax_curve", ("errors",)),
    ("newton.newton_solve", ("calls", "self_s", "errors")),
    ("newton.fd_jacobian", ("calls",)),
    ("models.check_domain", ("calls", "self_s")),
    ("models.eigen", ("calls", "self_s")),
    ("models.crossing_time", ("calls", "self_s", "total_s")),
    ("models.verify_hypotheses", ("calls", "self_s", "total_s")),
    ("riemann.split_boundary_pair", ("calls", "self_s")),
    ("riemann.split_boundary_pair_reverse", ("calls", "self_s")),
    ("tracking.inject_boundary_riemann", ("calls",)),
    ("control.steer_constant_states", ("total_s",)),
    ("control.stabilize", ("total_s",)),
    ("control.stabilization_step", ("calls",)),
    ("analysis.density_series", ("total_s",)),
    ("tracking.wave_measures", ("calls", "total_s")),
    ("analysis.shock_census", ("total_s",)),
    ("analysis.track_shock_strength", ("total_s",)),
    ("tracking.calibrate_interaction_constant", ("total_s",)),
    ("scenarios.validate_config", ("self_s",)),
    ("scenarios.build_initial", ("total_s",)),
    ("scenarios.write", ("self_s",)),
)


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("history_bytes", "bytes_written")):
        return "B"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def run_one(args):
    workload = WORKLOADS[args.workload]
    ft = import_program()
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            res = traced_run(ft, workload, args.seed, scratch)
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.npz"
            res.tracer.write(str(spans_path))
            print(f"spans written to {spans_path.relative_to(ROOT)}")
            attempted, failures = res.attempted, res.failures
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in res.metrics.items()}
            notes = {}
        else:
            values, notes, attempted, failures = timed_run(
                ft, workload, args.seed, args.seconds, scratch)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for i in sorted(failures)[:20]:
        print("FAILED " + failures[i])
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name:15s} {name:52s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{workload.name:15s} {'fail_frac':52s} "
          f"{len(failures) / attempted:.6g} ratio  ({len(failures)}/{attempted})")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every workload in turn, each in its own process so peak memory is
    per workload; the last line combines them, metrics named workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
