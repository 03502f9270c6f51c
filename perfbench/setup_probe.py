"""Set-up probe: time, in a fresh interpreter, importing fronttrack from a
source tree and building the given model blocks with scenarios.build_model.

    python3 perfbench/setup_probe.py SRC_DIR MODEL_BLOCKS_JSON

Prints one line: the elapsed seconds without the host-speed sampler's own
time, then the sampler's sample count and kernel seconds (see hostspeed).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from hostspeed import Sampler, python_kernel  # noqa: E402

with Sampler(python_kernel) as sampler:
    sys.path.insert(0, sys.argv[1])
    from fronttrack import scenarios  # noqa: E402

    for block in json.loads(sys.argv[2]):
        scenarios.build_model(block)
    elapsed = time.perf_counter() - T0
count, spent = sampler.read()
print(repr(elapsed - spent), count, repr(spent))
