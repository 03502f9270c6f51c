"""Host-speed sampler: scales measured times to a fixed host speed.

On a shared host the same request can run 1.7x slower for tens of seconds
when neighbours load the machine, and a run's median then says more about
the neighbours than about the program.  The sampler measures the host's
speed while the program runs: every ``PERIOD_S`` of process CPU time a
``SIGPROF`` handler times a fixed kernel, about 1.5 % extra work.  The
program and the kernel slow down together, so a time divided by the
kernel's mean time over the same stretch, times the kernel's nominal time,
is the time the work would take at the reference speed.

The kernels are part of the benchmark, not of the program, so a change to
the program moves the scaled time as much as the raw one.  Requests are
timed against ``numpy_kernel``, which mixes small numpy operations with
float arithmetic as the program does and tracks its speed best; the set-up
probe, which times the numpy import itself, uses ``python_kernel``.  Only
the stdlib is imported at module level.
"""

import math
import signal
import time

PERIOD_S = 0.02
# Fixed constants near each kernel's mean time inside the sampler on the
# 2-vCPU Intel Xeon VM (2.1 GHz, Python 3.11) the baseline was taken on, so
# that scaled times there read close to raw seconds.
PYTHON_NOMINAL_S = 2.0e-4
NUMPY_NOMINAL_S = 2.5e-4
# Fewest kernel samples that one speed estimate is taken from.
MIN_WINDOW_SAMPLES = 25


def python_kernel(n=400):
    """Fixed stdlib-only work: float arithmetic, math calls, tuple packing
    and a small dict."""
    x, y, acc = 1.0, 0.5, 0.0
    seen = {}
    for i in range(n):
        x, y = 2.0 * x + 0.1 * y + 0.25, 0.3 * x + 1.5 * y + 0.25
        h = math.hypot(x, y)
        x, y = x / h, y / h
        acc += math.sqrt(abs(x)) * 1.0001 + (i % 7) * 0.5
        seen[i & 15] = (x, y)
    return acc


def numpy_kernel(n=60):
    """Fixed work on 2-vectors: a matrix product, numpy arithmetic and
    scalar math, the pattern of the program's state updates."""
    import numpy as np
    a = np.array([[2.0, 0.1], [0.3, 1.5]])
    x, acc = np.array([1.0, 0.5]), 0.0
    for i in range(n):
        y = a @ x + 0.25
        x = y / math.hypot(y[0], y[1])
        acc += math.sqrt(abs(float(x[0]))) * 1.0001 + (i % 7) * 0.5
    return acc


class Sampler:
    """Times ``kernel`` every PERIOD_S of CPU time while started.

    ``count`` and ``spent`` (seconds inside the kernel) only grow, so a
    caller takes their differences across the stretch it measures.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.count = 0
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.spent += time.perf_counter() - t0
            self.count += 1
        finally:
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def read(self):
        return self.count, self.spent


def scale_factor(nominal, count, spent):
    """The kernel's nominal time over its mean time: multiply a raw time by
    it."""
    return nominal * count / spent


def scaled_times(nominal, raw, counts, spents):
    """Scale per-request raw times by the host speed around each request.

    Consecutive requests are grouped into windows of at least
    MIN_WINDOW_SAMPLES kernel samples (a long request is a window of its
    own); each request is scaled by its window's speed.  A short tail
    window joins the one before it.
    """
    windows, start, n = [], 0, 0
    for i, c in enumerate(counts):
        n += c
        if n >= MIN_WINDOW_SAMPLES:
            windows.append((start, i + 1))
            start, n = i + 1, 0
    if start < len(raw):
        if windows:
            windows[-1] = (windows[-1][0], len(raw))
        else:
            windows.append((start, len(raw)))
    out = []
    for a, b in windows:
        count, spent = sum(counts[a:b]), sum(spents[a:b])
        if count == 0:
            raise RuntimeError("the host-speed sampler took no samples; "
                               "the run was too short to scale")
        factor = scale_factor(nominal, count, spent)
        out += [t * factor for t in raw[a:b]]
    return out
