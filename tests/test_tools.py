"""tools/compare_outputs.py on small hand-made trees."""

import subprocess
import sys
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
BASE = {"run/manifest.json": '{"events": 743, "tv": 0.125, "kind": "shock"}\n',
        "run/snap.csv": "x,v\n0.5,-1e-17\n"}


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def _compare(tmp_path, changed):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", {**BASE, **changed})
    return subprocess.run([sys.executable, str(COMPARE), a, b],
                          capture_output=True, text=True)


@pytest.mark.parametrize("changed, code, line", [
    ({}, 0, "2 common files, 0 with numeric differences"),
    # 1e-13 absolute and relative: within tolerance
    ({"run/manifest.json": BASE["run/manifest.json"].replace("0.125", "0.1250000000001")},
     0, "2 common files, 1 with numeric differences"),
    # tiny absolute, large relative: within tolerance
    ({"run/snap.csv": "x,v\n0.5,2e-17\n"},
     0, "2 common files, 1 with numeric differences"),
    ({"run/manifest.json": BASE["run/manifest.json"].replace("743", "744")},
     1, "run/manifest.json: max abs 1.000e+00, max rel 1.344e-03 BEYOND TOLERANCE"),
    ({"run/manifest.json": BASE["run/manifest.json"].replace("shock", "rarefaction")},
     1, "run/manifest.json: text differs outside numbers"),
    ({"run/extra.csv": "x\n"}, 1, "run/extra.csv: only in"),
], ids=["same", "roundoff", "near-zero", "count", "kind", "extra-file"])
def test_compare_outputs(tmp_path, changed, code, line):
    result = _compare(tmp_path, changed)
    assert result.returncode == code, result.stdout
    assert line in result.stdout
