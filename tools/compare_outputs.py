"""Compare two trees written by tools/seed_outputs.py, number by number.

Usage: python tools/compare_outputs.py A B

Both trees must hold the same files, and in every file the text around the
numbers must be identical, so ids, kinds and names cannot differ.  Each
number of A is compared with the number at the same place in B.  For every
file whose numbers differ the script prints the largest absolute and
relative difference, and a last line sums up.  It exits 1 when the files or
their text differ, or when a pair of numbers differs by more than TOL
absolute and by more than TOL relative.
"""

import re
import sys
from pathlib import Path

TOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare_text(a, b):
    """(largest absolute, largest relative, beyond TOL) over the numbers of
    two texts, or None when the text around them differs."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return None
    worst_abs = worst_rel = 0.0
    beyond = False
    for x, y in zip(map(float, pa[1::2]), map(float, pb[1::2])):
        diff = abs(x - y)
        rel = diff / max(abs(x), abs(y)) if diff else 0.0
        worst_abs, worst_rel = max(worst_abs, diff), max(worst_rel, rel)
        beyond = beyond or (diff > TOL and rel > TOL)
    return worst_abs, worst_rel, beyond


def main(a, b):
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    failed = False
    for name in sorted(files_a ^ files_b):
        print(f"{name}: only in {a if name in files_a else b}")
        failed = True
    differ = 0
    worst_abs = worst_rel = 0.0
    for name in sorted(files_a & files_b):
        result = compare_text((a / name).read_text(), (b / name).read_text())
        if result is None:
            print(f"{name}: text differs outside numbers")
            failed = True
            continue
        d_abs, d_rel, beyond = result
        if d_abs:
            differ += 1
            print(f"{name}: max abs {d_abs:.3e}, max rel {d_rel:.3e}"
                  + (" BEYOND TOLERANCE" if beyond else ""))
        worst_abs, worst_rel = max(worst_abs, d_abs), max(worst_rel, d_rel)
        failed = failed or beyond
    print(f"{len(files_a & files_b)} common files, {differ} with numeric "
          f"differences; max abs {worst_abs:.3e}, max rel {worst_rel:.3e}; "
          + ("FAIL" if failed else f"all within {TOL:g} absolute or relative"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
