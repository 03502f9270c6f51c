"""Print where a traced run spent its time, from the spans file it wrote.

    python3 perfbench/shares.py .bench_run/spans-evolve_dense-seed1.npz [TOP]

Shares are self time over the summed duration of the request (root) spans:
first per layer module, then the TOP functions by self time, with their
calls and total (inclusive) time.
"""

import sys

import numpy as np

from tracer import LAYERS, ROOT_NAME, layer_stats


def main():
    path = sys.argv[1]
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    spans = {k: data[k] for k in ("name", "start", "end", "parent", "request", "error")}
    roots = spans["parent"] < 0
    wall = float(np.sum(spans["end"][roots] - spans["start"][roots]))
    stats = layer_stats(names, spans)
    print(f"{path}: {int(np.sum(roots))} requests, {wall:.4f} s traced, "
          f"{len(spans['start'])} spans")
    print("self-time share by layer:")
    for layer in LAYERS + (ROOT_NAME.split(".")[0],):
        s = sum(v["self_s"] for k, v in stats.items() if k.split(".")[0] == layer)
        print(f"  {layer:10s} {s:9.4f} s  {100 * s / wall:5.1f} %")
    print(f"top {top} functions by self time:")
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    for key, v in ranked:
        print(f"  {key:45s} self {100 * v['self_s'] / wall:5.1f} %  "
              f"total {100 * v['total_s'] / wall:5.1f} %  calls {v['calls']}")


if __name__ == "__main__":
    main()
