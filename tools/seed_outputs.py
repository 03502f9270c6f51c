"""Write the outputs of every seed-1 request of the benchmark workloads.

Usage: python tools/seed_outputs.py OUT

Each request of perfbench/workloads.py runs through scenarios.run_scenario
into OUT/<workload>/<index>, so two runs, or two checkouts, compare with
``diff -r``.  A request that fails stops the script with its traceback.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fronttrack.riemann  # noqa: E402
import fronttrack.scenarios  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(out):
    for name, workload in WORKLOADS.items():
        for i, (_, config, _) in enumerate(workload.requests(1, fronttrack)):
            fronttrack.scenarios.run_scenario(config, str(Path(out, name, f"{i:03d}")))


if __name__ == "__main__":
    main(sys.argv[1])
