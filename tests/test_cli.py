import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fronttrack import control, scenarios, tracking
from fronttrack.analysis import dense_strengths
from fronttrack.control import LOGLOG_FLOOR, crossing_time
from fronttrack.curves import SIGMA_NULL, lax_curve
from fronttrack.cli import main
from fronttrack.errors import (ConfigError, ContractViolationError,
                               ConvergenceError, DomainError,
                               HyperbolicityError, RadiusError)
from fronttrack.models import verify_hypotheses
from fronttrack.scenarios import validate_config

GAS_BLOCK = {"kind": "gas", "K": 1.0, "gamma": 2.0,
             "box": [[0.5, 1.5], [-0.4, 0.4]]}

# perfbench's STAB_GAS: the slow gas of the stabilize runs
STAB_BLOCK = {"kind": "gas", "K": 1.0, "gamma": 2.0,
              "box": [[0.95, 1.10], [0.88, 1.00]],
              "ref_state": [1.0, 0.98], "min_speed": 0.002}

NEAR_SONIC_BLOCK = {"kind": "gas", "K": 1.0, "gamma": 2.0,
                    "box": [[0.96, 1.08], [0.90, 1.0]],
                    "ref_state": [1.0, 0.995], "min_speed": 0.004}


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _evolve_config():
    return {
        "schema": "scenario-v1",
        "experiment": "evolve",
        "model": dict(NEAR_SONIC_BLOCK),
        "domain": [0.0, 0.13],
        "initial": {"kind": "dense_shocks", "n": 7, "budget": 0.03,
                    "base": [1.0, 0.995], "level_decay": 8.0},
        "epsilon": 0.01,
        "horizon": 1.0,
        "snapshot_times": [0.5, 1.0],
    }


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", _evolve_config())
    assert main(["validate", "--config", cfg]) == 0


def test_validate_flags_gamma_range(tmp_path, capsys):
    config = _evolve_config()
    config["model"]["gamma"] = 3.5
    cfg = _write(tmp_path, "bad_gamma.json", config)
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "1 < gamma < 3" in out


def test_validate_flags_negative_epsilon(tmp_path, capsys):
    config = _evolve_config()
    config["epsilon"] = -0.1
    cfg = _write(tmp_path, "bad_eps.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert "epsilon" in capsys.readouterr().out


def test_validate_flags_unknown_keys(tmp_path, capsys):
    config = _evolve_config()
    config["extra_knob"] = 1
    cfg = _write(tmp_path, "unknown.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert "extra_knob" in capsys.readouterr().out


def test_unknown_experiment_exits_2_without_outputs(tmp_path):
    config = _evolve_config()
    config["experiment"] = "teleport"
    cfg = _write(tmp_path, "bad_kind.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert not out_dir.exists()


def test_constant_evolve_reports_zero_tv(tmp_path):
    config = _evolve_config()
    config["initial"] = {"kind": "constant", "value": [1.0, 0.995]}
    cfg = _write(tmp_path, "const.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert all(tv == 0.0 for tv in manifest["metrics"]["tv"].values())
    assert (out_dir / "functionals.csv").exists()
    assert (out_dir / "interactions.csv").exists()
    assert (out_dir / "snapshots" / "snap_000.csv").exists()


def test_dropped_mass_counts_the_null_initial_waves(tmp_path):
    # at level_decay 1e6 the four level-2 waves of n = 7 have strength
    # 3e-14, below SIGMA_NULL: no front carries them, and dropped_mass is
    # their total (it read 0.0 when only the engine's own filter counted)
    config = _evolve_config()
    config["initial"].update(level_decay=1e6)
    cfg = _write(tmp_path, "null.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "metrics"]
    initial = config["initial"]
    strengths = np.abs(dense_strengths(initial["n"], initial["budget"], 1e6))
    null = strengths[strengths < SIGMA_NULL]
    assert len(null) == 4
    assert abs(metrics["dropped_mass"] - float(np.sum(null))) <= 1e-15


def test_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "evolve.json", _evolve_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_reports_write_each_value_type_one_way(tmp_path):
    # every report number becomes text one way: text_row writes a CSV or
    # .dat cell that is not a str as FLOAT_FMT % cell, and JSON writes a
    # numpy value as its tolist(); a value of no JSON type raises
    # TypeError, as json does
    out = scenarios._OutputSet(tmp_path)
    cells = ["shock", 7, np.int64(-3), True, np.bool_(False), 0.1, -0.0,
             math.nan, math.inf, -math.inf, np.float64(1 / 3)]
    out.write_csv("cells.csv", [f"c{k}" for k in range(len(cells))], [cells])
    assert (tmp_path / "cells.csv").read_text() == (
        "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\n"
        "shock,7,-3,1,0,0.10000000000000001,-0,nan,inf,-inf,"
        "0.33333333333333331\n")
    out.write_csv("rows.csv", ["t", "x"], np.array([[0.5, -0.0], [1, 2]]))
    assert (tmp_path / "rows.csv").read_text() == "t,x\n0.5,-0\n1,2\n"
    assert scenarios.text_row([3, 0.25, "x"], " ") == "3 0.25 x"
    out.write_json("values.json", {
        "str": "shock", "int": 7, "int64": np.int64(-3), "bool": True,
        "bool_": np.bool_(False), "float": 0.1, "float64": np.float64(1 / 3),
        "zero": -0.0, "special": [math.nan, math.inf, -math.inf],
        "floats": np.array([0.1, -0.0, math.nan, -math.inf]),
        "ints": np.array([[1, -2]]),
        "objects": np.array(["shock", 3], dtype=object)})
    assert (tmp_path / "values.json").read_text() == "\n".join([
        '{', ' "bool": true,', ' "bool_": false,', ' "float": 0.1,',
        ' "float64": 0.3333333333333333,',
        ' "floats": [', '  0.1,', '  -0.0,', '  NaN,', '  -Infinity', ' ],',
        ' "int": 7,', ' "int64": -3,', ' "ints": [', '  [', '   1,', '   -2',
        '  ]', ' ],', ' "objects": [', '  "shock",', '  3', ' ],',
        ' "special": [', '  NaN,', '  Infinity,', '  -Infinity', ' ],',
        ' "str": "shock",', ' "zero": -0.0', '}', ''])
    with pytest.raises(TypeError, match="Object of type set is not JSON"):
        out.write_json("set.json", {"ids": {1, 2}})


def test_riemann_subcommand_prints_table(tmp_path, capsys):
    config = {"schema": "scenario-v1", "experiment": "riemann",
              "model": dict(GAS_BLOCK),
              "riemann": {"ul": [1.0, 0.0], "ur": [1.05, 0.1]}}
    cfg = _write(tmp_path, "riemann.json", config)
    assert main(["riemann", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "family" in out and "rarefaction" in out
    assert main(["riemann", "--config", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["sigmas"]) == 2


def test_riemann_waves_follow_eigenvectors_of_a_badly_scaled_jacobian(
        tmp_path, capsys):
    # J = [[0, e, 0], [1, 1, 0], [0, 0, 2]]: LAPACK's balancing returns the
    # column (1, 0, 0) for the speed 0, whose residual |J r - 0 r| is 1
    e = 5.19e-259
    config = {"schema": "scenario-v1", "experiment": "riemann",
              "model": {"kind": "custom-table", "p": 0,
                        "box": [[-0.5, 0.5]] * 3,
                        "terms": [[[e, [0, 1, 0]]],
                                  [[1, [1, 0, 0]], [1, [0, 1, 0]]],
                                  [[2, [0, 0, 1]]]]},
              "riemann": {"ul": [0.0, 0.0, 0.0], "ur": [0.05, 0.02, 0.01]}}
    cfg = _write(tmp_path, "riemann.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["riemann", "--config", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jac = np.array([[0.0, e, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    states = np.array(payload["states"])
    for wave in payload["waves"]:
        du = states[wave["family"]] - states[wave["family"] - 1]
        assert np.max(np.abs(jac @ du - wave["speed_lo"] * du)) <= 1e-12


def test_riemann_resolves_the_speeds_of_a_jacobian_with_a_tiny_entry(
        tmp_path, capsys):
    # f = (1e-200 v, 1e200 u + v^2 / 2): J = [[0, 1e-200], [1e200, v]], whose
    # speeds (v -/+ sqrt(v^2 + 4)) / 2 need the product 1e-200 * 1e200; the
    # 2x2 closed form once scaled 1e-200 to 0 and called them coincident
    config = {"schema": "scenario-v1", "experiment": "riemann",
              "model": {"kind": "custom-table", "p": 1,
                        "box": [[0.5, 1.5], [0.5, 1.5]],
                        "terms": [[[1e-200, [0, 1]]],
                                  [[1e200, [1, 0]], [0.5, [0, 2]]]]},
              "riemann": {"ul": [1.0, 1.0], "ur": [1.0, 1.05]}}
    cfg = _write(tmp_path, "tiny_entry.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((out_dir / "riemann.json").read_text())
    assert [w["kind"] for w in payload["waves"]] == ["rarefaction"] * 2
    first, second = payload["waves"]
    assert first["speed_lo"] == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0,
                                              abs=1e-12)
    assert second["speed_hi"] == pytest.approx(
        (1.05 + math.sqrt(1.05 ** 2 + 4.0)) / 2.0, abs=1e-12)


def test_curves_experiment_writes_csv(tmp_path):
    config = {"schema": "scenario-v1", "experiment": "curves",
              "model": dict(GAS_BLOCK),
              "curves": {"u0": [1.0, 0.0], "family": 1, "branch": "lax",
                         "sigma_min": -0.2, "sigma_max": 0.2, "samples": 11}}
    cfg = _write(tmp_path, "curves.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    lines = (out_dir / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "sigma,u0,u1,speed"
    assert len(lines) == 12
    # the experiment runs under `run`; there is no `curves` subcommand
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--config", cfg, "--out", str(tmp_path / "other")])
    assert exc.value.code == 2


def test_curves_at_the_least_subnormal_strength_exit_0(tmp_path):
    # a shock this weak once made the gas Hugoniot term divide by zero
    config = {"schema": "scenario-v1", "experiment": "curves",
              "model": {"kind": "gas", "K": 0.5, "gamma": 1.2},
              "curves": {"u0": [1.0, 0.0], "family": 1, "branch": "shock",
                         "sigma_min": -5e-324, "sigma_max": -5e-324,
                         "samples": 1}}
    cfg = _write(tmp_path, "curves.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    assert len((out_dir / "curves.csv").read_text().strip().splitlines()) == 2


def test_run_and_riemann_build_the_model_once(tmp_path, monkeypatch):
    config = {"schema": "scenario-v1", "experiment": "riemann",
              "model": dict(GAS_BLOCK),
              "riemann": {"ul": [1.0, 0.0], "ur": [1.05, 0.1]}}
    cfg = _write(tmp_path, "riemann.json", config)
    calls = []
    build = scenarios.build_model

    def counted(block):
        calls.append(block)
        return build(block)

    monkeypatch.setattr(scenarios, "build_model", counted)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["riemann", "--config", cfg]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("text, diagnostic", [
    ("[1, 2]", "config must be a JSON object"),
    ("{not json", "invalid JSON"),
], ids=["not_object", "not_json"])
def test_unreadable_config_exits_2_from_every_command(tmp_path, capsys, text,
                                                      diagnostic):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out_dir = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out_dir)], ["riemann"]):
        assert main(argv + ["--config", str(path)]) == 2
        assert diagnostic in "".join(capsys.readouterr())
    assert not out_dir.exists()


def test_linear_control_hyphen_spelling_is_an_unknown_experiment(tmp_path,
                                                                 capsys):
    config = {"schema": "scenario-v1", "experiment": "linear-control",
              "model": {"kind": "linear", "A": [[-1.0, 0.0], [0.0, 1.0]]},
              "domain": [0.0, 1.0], "T": 1.0,
              "phi": {"xs": [0.5], "values": [[0.0, 0.0], [0.1, 0.2]]},
              "psi": {"xs": [], "values": [[0.3, -0.1]]}}
    cfg = _write(tmp_path, "hyphen.json", config)
    message = "unknown experiment kind 'linear-control'"
    assert main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
    config["experiment"] = "linear_control"
    cfg = _write(tmp_path, "underscore.json", config)
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0


def test_stabilize_scenario_and_plots(tmp_path):
    config = {
        "schema": "scenario-v1",
        "experiment": "stabilize",
        "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
                  "box": [[0.95, 1.10], [0.88, 1.00]],
                  "ref_state": [1.0, 0.98], "min_speed": 0.002},
        "domain": [0.0, 1.0],
        "epsilon": 0.006,
        "k_max": 4,
        "initial": {"kind": "dense_shocks", "n": 15, "budget": 0.05,
                    "base": [1.0, 0.98]},
        "u_star": [1.0, 0.98],
    }
    cfg = _write(tmp_path, "stab.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    rows = (out_dir / "contraction.csv").read_text().strip().splitlines()[1:]
    deltas = [max(float(r.split(",")[2]), float(r.split(",")[3]))
              for r in rows]
    assert len(deltas) >= 2
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < 1e-9
    assert main(["plots", "--out", str(out_dir), "--quiet"]) == 0
    expected = [[int(row["k"]), math.log(math.log(1.0 / delta))]
                for row, delta in zip(_csv_rows(out_dir / "contraction.csv"),
                                      deltas)
                if LOGLOG_FLOOR < delta < 1.0]
    assert expected
    assert _dat_rows(out_dir / "contraction_loglog.dat",
                     "# k  loglog_inv_delta") == expected


def test_contraction_failure_exits_4_with_its_reports(tmp_path, capsys,
                                                     monkeypatch):
    # a hop that injects nothing leaves each step's end state where the
    # absorbing boundaries put it: delta stalls at step 2
    def no_hop(sim, target, tau, actions, *args):
        sim.advance_to(sim.time + 2 * tau)
        return [[], []]
    monkeypatch.setattr(control, "_hop", no_hop)
    config = {"schema": "scenario-v1", "experiment": "stabilize",
              "model": dict(STAB_BLOCK), "domain": [0.0, 1.0],
              "initial": {"kind": "dense_shocks", "n": 15, "budget": 0.04,
                          "base": [1.0, 0.98]},
              "u_star": [1.0, 0.98], "epsilon": 0.005, "k_max": 3}
    cfg = _write(tmp_path, "stab.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 4
    assert capsys.readouterr().err == (
        "invariant violation: delta did not decrease at step 2: "
        "2.836e-02 -> 2.836e-02\n")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "contraction.csv", "plan.json"]
    rows = _csv_rows(out_dir / "contraction.csv")
    assert [int(row["k"]) for row in rows] == [0, 1, 2, 3]
    assert len({row["sup_dist"] for row in rows}) == 1
    assert json.loads((out_dir / "plan.json").read_text())["actions"] == []


def test_stabilize_steers_first_when_only_the_tv_exceeds_delta0(tmp_path):
    # sup distance 0.0361 but TV 0.144 > delta0 = 0.1: a step's
    # precondition refuses this profile, so the pre-phase must run
    config = {"schema": "scenario-v1", "experiment": "stabilize",
              "model": dict(STAB_BLOCK), "domain": [0.0, 1.0],
              "initial": {"kind": "jumps", "left": [1.0, 0.98], "jumps": [
                  [0.2, [1.03, 0.96]], [0.4, [1.0, 0.98]],
                  [0.6, [1.03, 0.96]], [0.8, [1.0, 0.98]]]},
              "u_star": [1.0, 0.98], "epsilon": 0.005, "k_max": 3}
    cfg = _write(tmp_path, "stab_tv.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "contraction.csv", "manifest.json", "plan.json"]
    plan = json.loads((out_dir / "plan.json").read_text())
    assert len(plan["actions"]) == 2
    first = _csv_rows(out_dir / "contraction.csv")[0]
    assert int(first["k"]) == 0
    assert float(first["t"]) >= plan["actions"][-1]["time"] > 0.0
    assert float(first["sup_dist"]) <= 0.1 and float(first["tv"]) <= 0.1


def test_counterexample_scenario_plots(tmp_path):
    config = {
        "schema": "scenario-v1",
        "experiment": "counterexample",
        "model": dict(NEAR_SONIC_BLOCK),
        "domain": [0.0, 0.13],
        "initial": {"kind": "dense_shocks", "n": 15, "budget": 0.05,
                    "base": [1.0, 0.995], "level_decay": 8.0},
        "epsilon": 0.01,
        "horizon": 1.0,
        "census": {"times": [0.0, 0.5, 1.0], "floor": 1e-8,
                   "creation_floor": 1e-10},
    }
    cfg = _write(tmp_path, "counter.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["metrics"]["sign_unresolved"] == 0
    assert (out_dir / "census.csv").exists()
    assert main(["plots", "--out", str(out_dir), "--quiet"]) == 0
    density = _csv_rows(out_dir / "density_f1.csv")
    assert len(density) == 8
    assert _dat_rows(out_dir / "kappa_vs_t.dat", "# t  kappa_hat") == [
        [float(row["t"]), float(row["kappa_hat"])] for row in density]
    gaps = {}
    for row in _csv_rows(out_dir / "census.csv"):
        gaps.setdefault(float(row["t"]), {})[int(row["family"])] = float(
            row["largest_gap"])
    assert sorted(gaps) == [0.0, 0.5, 1.0]
    assert _dat_rows(out_dir / "census_gap_vs_t.dat",
                     "# t  largest_gap_per_family") == [
        [t, *(gaps[t][f] for f in sorted(gaps[t]))] for t in sorted(gaps)]


def test_sign_audit_resolves_by_the_census_creation_floor(tmp_path):
    # the sign audit and the creation count apply one rule: a family-2
    # output is resolved, and a creation, above census.creation_floor
    config = {**_readme_config(), "census": {"creation_floor": 1e-9}}
    cfg = _write(tmp_path, "floor.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "metrics"]
    assert metrics["sign_compliant"] == metrics["creation_count"] == 8
    assert metrics["sign_unresolved"] == 8
    assert metrics["same_family_collisions"] == 16


@pytest.mark.parametrize("report, text", [
    ("contraction.csv", "k,t,sup_dist,tv,ratio\n0,0.0,0.1\n"),
    ("census.csv", "t,family,n_shocks,largest_gap,creation_count,tv\n"
                   "0.0,1,3,abc,0,0.1\n"),
    ("density_f1.csv", "t,max_density,total_mass\n0.5,1.0,2.0\n"),
], ids=["short-row", "not-a-number", "missing-column"])
def test_malformed_report_exits_2_naming_it(tmp_path, capsys, report, text):
    (tmp_path / report).write_text(text)
    assert main(["plots", "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / report} line 2: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.dat"))


def test_plots_without_reports_exits_2(tmp_path, capsys):
    assert main(["plots", "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == "no plottable CSV files found\n"
    assert list(tmp_path.iterdir()) == []


def test_loglog_plot_drops_the_deltas_the_fit_drops(tmp_path):
    (tmp_path / "contraction.csv").write_text(
        "k,t,sup_dist,tv,ratio\n0,0,0.5,0.25,nan\n1,1,1e-14,0,4e-14\n"
        "2,2,0,0,0\n")
    assert main(["plots", "--out", str(tmp_path), "--quiet"]) == 0
    assert _dat_rows(tmp_path / "contraction_loglog.dat",
                     "# k  loglog_inv_delta") == [[0.0, math.log(math.log(2.0))]]


def _csv_rows(path):
    """The rows of a CSV report as dicts of column name to text."""
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def _dat_rows(path, header):
    """The number rows of a .dat file, after checking its header line."""
    first, *rows = path.read_text().splitlines()
    assert first == header
    return [[float(x) for x in row.split()] for row in rows]


def _tree(out_dir):
    """Each file of a run directory, by its relative path, as bytes."""
    return {p.relative_to(out_dir): p.read_bytes()
            for p in out_dir.rglob("*") if p.is_file()}


def test_sweep_mode_writes_subdirectories(tmp_path):
    config = _evolve_config()
    config["sweep"] = [{"epsilon": 0.02}, {"epsilon": 0.01}]
    cfg = _write(tmp_path, "sweep.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    epsilons = [json.loads((out_dir / sub / "manifest.json").read_text())
                ["config"]["epsilon"] for sub in ("sweep_000", "sweep_001")]
    assert epsilons == [0.02, 0.01]
    # each variant writes the bytes of the same config run alone
    del config["sweep"]
    for k, epsilon in enumerate(epsilons):
        alone = tmp_path / f"alone_{k}"
        cfg = _write(tmp_path, f"alone_{k}.json", {**config, "epsilon": epsilon})
        assert main(["run", "--config", cfg, "--out", str(alone),
                     "--quiet"]) == 0
        assert _tree(out_dir / f"sweep_{k:03d}") == _tree(alone)


@pytest.mark.parametrize("key, value, diagnostic", [
    ("sweep", 3, "sweep=3 must be a list"),
    ("sweep", ["x"], "sweep=['x'] must be a list of objects"),
    ("sweep", [{"epsilon": 0.02}, {"speed": 2}], "sweep[1]: unknown key 'speed'"),
    ("sweep", [{"epsilon": 0.02}, {"epsilon": -1.0}],
     "sweep[1]: epsilon=-1.0 must be positive"),
    ("workers", "two", "unknown key 'workers'"),
    ("workers", 0, "unknown key 'workers'"),
    ("sweep", [{"sweep": [{"horizon": 0.5}]}],
     "sweep[0]: a sweep variant cannot hold a sweep"),
    ("sweep", [{"workers": 2}], "sweep[0]: unknown key 'workers'"),
])
def test_malformed_sweep_or_workers_exits_2(tmp_path, capsys, key, value,
                                            diagnostic):
    config = _evolve_config()
    config[key] = value
    cfg = _write(tmp_path, "bad_sweep.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert diagnostic in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert diagnostic in capsys.readouterr().err
    assert not out_dir.exists()


def test_jumps_initial_kind(tmp_path):
    config = _evolve_config()
    config["initial"] = {
        "kind": "jumps",
        "left": [1.0, 0.995],
        "jumps": [[0.05, [1.01, 0.99]], [0.09, [1.02, 0.985]]],
    }
    cfg = _write(tmp_path, "jumps.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["metrics"]["fronts_final"] >= 0


def test_validate_config_function_directly():
    assert validate_config({"schema": "scenario-v1"})  # missing pieces
    diags = validate_config({
        "schema": "scenario-v1", "experiment": "riemann",
        "model": dict(GAS_BLOCK),
        "riemann": {"ul": [1.0, 0.0], "ur": [1.0, 0.0]}})
    assert diags == []


def test_calibration_without_admissible_states_exits_4(tmp_path, capsys):
    # the calibration box (the working box shrunk by a quarter per side) is
    # entirely supersonic, so no draw is admissible: the run must stop with
    # an invariant violation instead of drawing forever
    config = {
        "schema": "scenario-v1",
        "experiment": "evolve",
        "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
                  "box": [[0.5, 1.0], [0.8, 1.6]]},
        "domain": [0.0, 1.0],
        "initial": {"kind": "constant", "value": [0.9, 0.85]},
    }
    cfg = _write(tmp_path, "no_calibration.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "accepted 0 of 20000 draws" in err


def test_out_of_domain_initial_state_exits_2(tmp_path, capsys):
    config = _evolve_config()
    config["model"] = dict(GAS_BLOCK)
    config["initial"] = {"kind": "jumps", "left": [1.0, 0.0],
                         "jumps": [[0.5, [3.0, 0.0]]]}
    cfg = _write(tmp_path, "outside.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert "initial.jumps[0]" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("xs, diagnostic", [
    ([0.7, 0.3], "initial.jumps[1] position 0.3 lies left of the previous "
                 "position 0.7"),
    ([math.nan], "initial.jumps[0] position nan must be finite"),
    ([1.5], "initial.jumps[0] position 1.5 lies outside the domain [0.0, 1.0]"),
], ids=["unsorted", "nan", "outside"])
def test_bad_jump_position_exits_2(tmp_path, capsys, xs, diagnostic):
    config = {**_evolve_config(), "domain": [0.0, 1.0]}
    config["initial"] = {"kind": "jumps", "left": [1.0, 0.995],
                         "jumps": [[x, [1.02, 0.99]] for x in xs]}
    cfg = _write(tmp_path, "bad_jumps.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().out == diagnostic + "\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("profile, xs, diagnostic", [
    ("phi", [math.nan], "phi.xs[0] position nan must be finite"),
    ("phi", [1.5], "phi.xs[0] position 1.5 lies outside the domain [0.0, 1.0]"),
    ("psi", [0.7, 0.3], "psi.xs[1] position 0.3 lies left of the previous "
                        "position 0.7"),
], ids=["nan", "outside", "unsorted"])
def test_bad_linear_control_breakpoint_exits_2(tmp_path, capsys, profile, xs,
                                               diagnostic):
    config = _valid_config("linear_control")
    config[profile] = {"xs": xs, "values": [[0.1, 0.2]] * (len(xs) + 1)}
    cfg = _write(tmp_path, "bad_breakpoints.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().out == diagnostic + "\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    assert not out_dir.exists()


def _non_finite_config(case):
    """A config with one non-finite number, which json.dumps writes as
    Infinity or NaN."""
    if case == "horizon":
        return {**_readme_config(), "horizon": math.inf}
    if case == "box":
        config = _readme_config()
        config["model"]["box"] = [[0.96, math.inf], [0.9, 1.0]]
        return config
    if case == "domain":
        return {**_readme_config(), "domain": [0, math.inf]}
    if case == "T":
        return {**_valid_config("linear_control"), "T": math.inf}
    # a jump of 1.84 in the Riemann coordinates, beyond the solvable radius,
    # which a NaN reference state would hide from the radius check
    config = _valid_config("riemann")
    config["model"]["ref_state"] = [math.nan, 0]
    config["riemann"] = {"ul": [0.5, -0.4], "ur": [1.5, 0.4]}
    return config


@pytest.mark.parametrize("case, diagnostic", [
    ("horizon", "horizon=inf must be positive and finite"),
    ("box", "model.box=[[0.96, inf], [0.9, 1.0]] must be finite [low, high] "
            "pairs with low < high"),
    ("domain", "domain=[0, inf] must be [lo, hi] with lo < hi, both finite"),
    ("T", "T=inf must be positive and finite"),
    ("ref_state", "model.ref_state=[nan, 0] must be a state of finite numbers"),
], ids=["horizon", "box", "domain", "T", "ref_state"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, case, diagnostic):
    cfg = _write(tmp_path, "non_finite.json", _non_finite_config(case))
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().out == diagnostic + "\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    assert not out_dir.exists()


_K_RANGE = "must be in 0 < K < 2**512, where the flux's K**2 is a finite float"
_FINITE_VALUES = "must have numeric xs and len(xs) + 1 values of 2 finite numbers"


@pytest.mark.parametrize("experiment, block, key, value, diagnostic", [
    # a NaN floor compares false with every strength: the census counted
    # wrong and the run exited 0
    ("counterexample", "census", "floor", math.nan,
     "census.floor=nan must be finite"),
    ("counterexample", "census", "creation_floor", math.nan,
     "census.creation_floor=nan must be finite"),
    # a negative margin widens the sign pattern past the sonic line: the
    # hypothesis sweep failed and the run exited 4
    ("counterexample", "model", "min_speed", -1,
     "model.min_speed=-1 must be finite and >= 0"),
    # a negative density made the Riemann coordinates of the reference
    # state complex: the run exited 1 with a TypeError
    ("counterexample", "model", "ref_state", [-1, 0.995],
     "model.ref_state=[-1, 0.995] lies outside the admissible domain of the "
     "model"),
    # K ** 2 overflowed in GasModel.hessian: the run exited 1 with an
    # OverflowError
    ("counterexample", "model", "K", 1e160, f"model.K=1e+160 {_K_RANGE}"),
    ("counterexample", "model", "K", 1e300, f"model.K=1e+300 {_K_RANGE}"),
    # max(0.0, nan) dropped the NaN: the run exited 0 with a reconstruction
    # error of 0.0
    ("linear_control", "phi", "values", [[math.nan, 0.0], [0.1, 0.2]],
     f"phi {_FINITE_VALUES}"),
    ("linear_control", "phi", "values", [[0.0, 0.0], [math.inf, 0.2]],
     f"phi {_FINITE_VALUES}"),
    ("linear_control", "psi", "values", [[0.3, -math.inf]],
     f"psi {_FINITE_VALUES}"),
], ids=["census_floor", "creation_floor", "min_speed", "ref_state", "K_1e160",
        "K_1e300", "phi_nan", "phi_inf", "psi_minus_inf"])
def test_config_values_a_run_cannot_use_exit_2(tmp_path, capsys, experiment,
                                               block, key, value, diagnostic):
    config = _valid_config(experiment)
    config.setdefault(block, {})[key] = value
    cfg = _write(tmp_path, "unusable.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().out == diagnostic + "\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {diagnostic}\n"
    assert not out_dir.exists()


def test_jump_positions_on_the_domain_edges_and_repeated_are_valid():
    config = {**_evolve_config(), "domain": [0.0, 1.0]}
    config["initial"] = {"kind": "jumps", "left": [1.0, 0.995],
                         "jumps": [[x, [1.0, 0.995]] for x in (0, 0.5, 0.5, 1)]}
    assert validate_config(config) == []


def test_breakpoints_on_the_domain_edges_and_repeated_are_valid():
    config = _valid_config("linear_control")
    config["phi"] = {"xs": [0, 0.5, 0.5, 1], "values": [[0.1, 0.2]] * 5}
    assert validate_config(config) == []


def test_initial_states_are_checked_per_kind():
    config = _evolve_config()
    config["initial"] = {"kind": "constant", "value": [1.0, 2.0]}
    assert any("initial.value" in d for d in validate_config(config))
    config["initial"] = {"kind": "jumps", "left": [1.0], "jumps": [[0.5]]}
    diags = validate_config(config)
    assert any("initial.left" in d for d in diags)
    assert any("initial.jumps[0]" in d for d in diags)
    config["initial"] = {"kind": "dense_shocks", "n": 7, "budget": 0.03,
                         "base": [1.0, 0.5]}
    assert any("initial.base" in d for d in validate_config(config))


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError(["first diagnostic", "second diagnostic"]), 2, "config error"),
    (ContractViolationError("V + c0 Q increased", {"step": 3}), 4,
     "invariant violation"),
    (ConvergenceError("Newton stalled"), 3, "solver divergence"),
    # a ConvergenceError: the first row of the table it matches applies
    (RadiusError("jump 0.6 exceeds Riemann radius 0.5"), 3, "solver divergence"),
    (DomainError("state [3. 0.] outside admissible domain"), 3, "domain error"),
    (HyperbolicityError("coincident characteristic speeds at [1. 0.]"), 3,
     "hyperbolicity error"),
    (OSError("disk full"), 2, "error"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_failure_during_run_exits_with_its_code(tmp_path, monkeypatch, capsys,
                                                error, code, prefix):
    def fails(config, model, out):
        raise error
    monkeypatch.setitem(scenarios._RUNNERS, "evolve", fails)
    cfg = _write(tmp_path, "evolve.json", _evolve_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == code
    lines = getattr(error, "diagnostics", [error])
    assert capsys.readouterr().err == "".join(f"{prefix}: {line}\n"
                                              for line in lines)


def test_event_budget_exceeded_exits_4(tmp_path, monkeypatch, capsys):
    # the waves of the two jumps collide and leave the interval in 67
    # events when the budget is not cut
    config = _evolve_config()
    config["model"] = dict(GAS_BLOCK)
    config["domain"] = [0.0, 1.0]
    config["initial"] = {"kind": "jumps", "left": [1.0, 0.0],
                         "jumps": [[0.3, [1.05, 0.0]], [0.6, [1.0, 0.05]]]}
    monkeypatch.setattr(tracking, "MAX_EVENTS", 3)
    cfg = _write(tmp_path, "evolve.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 4
    assert "exceeded MAX_EVENTS=3" in capsys.readouterr().err


def test_hyperbolicity_error_during_run_exits_3(tmp_path, capsys):
    # f = (u^2/2, v) has speeds u and 1, which coincide at ul = (1, 0): the
    # config is valid, the Riemann solve is not
    config = {
        "schema": "scenario-v1",
        "experiment": "riemann",
        "model": {"kind": "custom-table",
                  "terms": [[[0.5, [2, 0]]], [[1, [0, 1]]]], "p": 0,
                  "box": [[0.5, 1.5], [-1, 1]]},
        "riemann": {"ul": [1, 0], "ur": [1.05, 0]},
    }
    cfg = _write(tmp_path, "coincident.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "hyperbolicity error: coincident characteristic speeds at [1. 0.]\n"


TABLE_BLOCK = {"kind": "custom-table",
               "terms": [[[1, [1, 1]]], [[0.5, [0, 2]], [1, [1, 0]]]],
               "p": 1, "box": [[0.5, 1.5], [-0.4, 0.4]]}


def _valid_config(experiment):
    """A valid config of the experiment, on the gas of GAS_BLOCK unless the
    experiment needs another model."""
    base = {"schema": "scenario-v1", "experiment": experiment,
            "model": dict(GAS_BLOCK)}
    extra = {
        "evolve": _evolve_config(),
        "counterexample": {**_evolve_config(), "experiment": "counterexample"},
        "riemann": {"riemann": {"ul": [1.0, 0.0], "ur": [1.05, 0.1]}},
        "curves": {"curves": {"u0": [1.0, 0.0], "samples": 5}},
        "steer": {"domain": [0.0, 1.0], "omega": [1.0, 0.0],
                  "omega_prime": [1.05, 0.02]},
        "stabilize": {"domain": [0.0, 1.0], "u_star": [1.0, 0.0],
                      "initial": {"kind": "constant", "value": [1.0, 0.0]}},
        "linear_control": {
            "model": {"kind": "linear", "A": [[-1.0, 0.0], [0.0, 1.0]]},
            "domain": [0.0, 1.0], "T": 1.0,
            "phi": {"xs": [0.5], "values": [[0.0, 0.0], [0.1, 0.2]]},
            "psi": {"xs": [], "values": [[0.3, -0.1]]}},
    }[experiment]
    return {**base, **extra}


@pytest.mark.parametrize("experiment, key, value, diagnostic", [
    ("counterexample", "density.family", 2, "density: unknown key 'family'"),
    ("counterexample", "density.cells", -1,
     "density.cells=-1 must be a positive integer"),
    ("counterexample", "density.cells", "x",
     "density.cells='x' must be a positive integer"),
    ("counterexample", "census", [], "census must be an object"),
    ("counterexample", "census.times", "soon",
     "census.times must be a list of numbers"),
    ("counterexample", "density.times", [0.5, "x"],
     "density.times must be a list of numbers"),
    ("evolve", "snapshot_times", 0.5, "snapshot_times must be a non-decreasing"),
    ("evolve", "snapshot_times", [-1.0], "snapshot_times must be a non-decreasing"),
    ("evolve", "snapshot_times", [1.0, 0.5],
     "snapshot_times must be a non-decreasing"),
    ("counterexample", "census.probe", [0.1],
     "census.probe=[0.1] must be [lo, hi] with lo < hi"),
    ("counterexample", "density.probe", [0.1, 0.05],
     "density.probe=[0.1, 0.05] must be [lo, hi] with lo < hi"),
    ("riemann", "riemann.ul", [1.0, 0.0, 0.0],
     "riemann.ul=[1.0, 0.0, 0.0] must be a state of 2 numbers"),
    ("riemann", "riemann.ur", [1.0], "riemann.ur=[1.0] must be a state of 2"),
    ("steer", "omega", [1.0, 0.0, 0.0], "omega=[1.0, 0.0, 0.0] must be a state"),
    ("steer", "omega_prime", [1.0], "omega_prime=[1.0] must be a state"),
    ("stabilize", "u_star", [1.0, 0.0, 0.0], "u_star=[1.0, 0.0, 0.0] must be"),
    ("curves", "curves.u0", [1.0, 0.0, 0.0], "curves.u0=[1.0, 0.0, 0.0] must"),
    ("curves", "curves.family", 3, "curves.family=3 must be a family in 1..2"),
    ("evolve", "initial.family", 3, "initial.family=3 must be a family in 1..2"),
    ("counterexample", "initial.family", 2,
     "counterexample tracks family-1 shocks: initial.family must be 1"),
    ("curves", "curves.samples", 0, "curves.samples=0 must be a positive integer"),
    ("curves", "curves.samples", "x", "curves.samples='x' must be a positive"),
    ("evolve", "initial.level_decay", 1.0, "initial.level_decay=1.0 must exceed 1"),
    ("steer", "delta_chain", 0, "delta_chain=0 must be positive"),
    ("stabilize", "delta0", -0.1, "delta0=-0.1 must be positive"),
    ("steer", "model", TABLE_BLOCK, "steer needs a Riemann chart"),
    ("stabilize", "model", TABLE_BLOCK, "stabilize needs a Riemann chart"),
    ("linear_control", "phi.values", [[0.0, 0.0]],
     "phi must have numeric xs and len(xs) + 1 values of 2 finite numbers"),
    ("linear_control", "psi.values", [[0.3]], "psi must have numeric xs"),
    ("evolve", "model.box", [[0.5, 1.5]],
     "model block rejected: box has 1 [low, high] pairs for 2 components"),
    ("riemann", "model.box", [], "model block rejected: box has 0 [low, high]"),
    ("linear_control", "model.A", 2.0, "model block rejected: A must be square"),
    ("curves", "curves.sigma_min", "x", "curves.sigma_min='x' must be a number"),
    ("curves", "curves.sigma_max", None, "curves.sigma_max=None must be a number"),
    ("counterexample", "census.floor", [1.0], "census.floor=[1.0] must be a number"),
    ("counterexample", "census.creation_floor", {"a": 1},
     "census.creation_floor={'a': 1} must be a number"),
    ("linear_control", "T", 0.5, "T=0.5 below crossing time tau=1.0"),
    ("counterexample", "initial", {"kind": "constant", "value": [1.0, 0.995]},
     "a constant initial profile has no family-1 front"),
    ("counterexample", "initial", {"kind": "dense_shocks", "n": 1, "budget": 0.6},
     "initial: largest wave |sigma|=0.6 beyond curve radius 0.5"),
    ("curves", "curves.sigma_max", 0.7,
     "curves.sigma_max=0.7 beyond curve radius 0.5"),
    # keys their experiment or kind does not read
    ("counterexample", "model.A", [[1.0, 0.0], [0.0, 2.0]],
     "model: unknown key 'A' for model kind 'gas'"),
    ("counterexample", "model.terms", "x",
     "model: unknown key 'terms' for model kind 'gas'"),
    ("counterexample", "model.p", None, "model: unknown key 'p' for model kind 'gas'"),
    ("counterexample", "initial.left", [1.0, 0.995],
     "initial: unknown key 'left' for initial kind 'dense_shocks'"),
    ("evolve", "k_max", 4, "unknown key 'k_max' for experiment kind 'evolve'"),
    ("evolve", "T", "soon", "unknown key 'T' for experiment kind 'evolve'"),
    ("riemann", "epsilon", 0.01, "unknown key 'epsilon' for experiment kind 'riemann'"),
    # booleans are not numbers
    ("evolve", "epsilon", True, "epsilon=True must be positive"),
    ("evolve", "horizon", True, "horizon=True must be positive"),
    ("stabilize", "k_max", True, "k_max=True must be an integer in 1..50"),
    ("stabilize", "initial", {"kind": "jumps", "left": [True, False], "jumps": []},
     "initial.left=[True, False] must be a state of 2 numbers"),
    # custom-table terms and p
    ("riemann", "model", {**TABLE_BLOCK, "p": 5},
     "model block rejected: p=5 must be a family count in 0..2"),
    ("riemann", "model", {**TABLE_BLOCK, "terms": [[[1, [1, 1.5]]], [[1, [1, 0]]]]},
     "model block rejected: term exponents [1, 1.5] are not integers"),
    ("riemann", "model", {**TABLE_BLOCK, "terms": [[[1, [1, True]]], [[1, [1, 0]]]]},
     "model block rejected: term exponents [1, True] are not integers"),
    ("riemann", "model", {**TABLE_BLOCK, "terms": [[[True, [1, 1]]], [[1, [1, 0]]]]},
     "model block rejected: term coefficient True is not a number"),
    ("riemann", "model",
     {**TABLE_BLOCK, "terms": [[[1, [1, 10 ** 23]]], [[1, [1, 0]]]]},
     "model block rejected: Python int too large"),
    # report times outside [0, horizon]: the run ends at its horizon
    ("evolve", "snapshot_times", [0.5, 2.0],
     "snapshot_times=[0.5, 2.0] must lie in [0, horizon=1.0]"),
    ("counterexample", "census.times", [50.0],
     "census.times=[50.0] must lie in [0, horizon=1.0]"),
    ("counterexample", "census.times", [-5.0],
     "census.times=[-5.0] must lie in [0, horizon=1.0]"),
    ("counterexample", "density.times", [0.5, 1.5],
     "density.times=[0.5, 1.5] must lie in [0, horizon=1.0]"),
    # states of the right length outside the gas box [[0.5, 1.5], [-0.4, 0.4]]
    *[(experiment, key, [3.0, 0.0],
       f"{key}=[3.0, 0.0] lies outside the admissible domain of the model")
      for experiment, key in [("riemann", "riemann.ul"), ("riemann", "riemann.ur"),
                              ("curves", "curves.u0"), ("steer", "omega"),
                              ("steer", "omega_prime"), ("stabilize", "u_star")]],
])
def test_config_the_runner_cannot_read_exits_2(tmp_path, capsys, experiment,
                                               key, value, diagnostic):
    config = _valid_config(experiment)
    assert validate_config(config) == []
    *blocks, last = key.split(".")
    target = config
    for name in blocks:
        target = target.setdefault(name, {})
    target[last] = value
    cfg = _write(tmp_path, "bad.json", config)
    assert main(["validate", "--config", cfg]) == 2
    assert diagnostic in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert diagnostic in err and err.count("\n") == 1
    assert not out_dir.exists()


def test_run_ends_at_its_horizon_whatever_its_snapshot_times(tmp_path):
    # stopping for a snapshot at 0.3 moves positions by roundoff only: the
    # run still resolves every event up to the horizon
    config = {**_evolve_config(), "experiment": "counterexample",
              "initial": {"kind": "dense_shocks", "n": 31, "budget": 0.05,
                          "base": [1.0, 0.995], "level_decay": 8.0},
              "horizon": 2.0}
    runs = {}
    for name, times in (("early", [0.3]), ("end", [2.0])):
        cfg = _write(tmp_path, f"{name}.json", {**config, "snapshot_times": times})
        out_dir = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out_dir),
                     "--quiet"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        census = json.loads((out_dir / "census.json").read_text())
        events = [row.split(",")[2:5] for row in
                  (out_dir / "interactions.csv").read_text().splitlines()]
        runs[name] = manifest["metrics"], census, events
    (early, census, events), (end, census_end, events_end) = runs.values()
    assert early["events"] == end["events"] > 100
    assert events == events_end
    for key in ("creation_count", "fronts_final", "tracked_fate"):
        assert early[key] == end[key]
    assert [r["time"] for r in census] == [r["time"] for r in census_end]
    for rep, ref in zip(census, census_end):
        assert rep["tv"] == pytest.approx(ref["tv"], abs=1e-12)
        for family, shocks in rep["families"].items():
            assert shocks["positions"] == pytest.approx(
                ref["families"][family]["positions"], abs=1e-12)


def test_counterexample_without_family_1_front_exits_2(tmp_path, capsys):
    # a family-2 shock alone: the config is valid, the run has nothing to track
    left = [1.0, 0.995]
    right = lax_curve(scenarios.build_model(NEAR_SONIC_BLOCK), left, 2, -0.01).state
    config = _valid_config("counterexample")
    config["initial"] = {"kind": "jumps", "left": left,
                         "jumps": [[0.06, [float(u) for u in right]]]}
    cfg = _write(tmp_path, "family2.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: counterexample tracks family-1 shocks: the initial "
        "profile has no family-1 front\n")
    assert not out_dir.exists()


def test_riemann_command_on_another_experiment_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "evolve.json", _evolve_config())
    assert main(["riemann", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: the riemann command needs a 'riemann' experiment, "
        "not 'evolve'\n")


def test_steer_run_ends_on_the_target(tmp_path):
    cfg = _write(tmp_path, "steer.json", _valid_config("steer"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    metrics = json.loads((out_dir / "manifest.json").read_text())["metrics"]
    plan = json.loads((out_dir / "plan.json").read_text())
    assert metrics["hops"] >= 1
    assert len(plan["actions"]) == 2 * metrics["hops"]
    assert [a["side"] for a in plan["actions"]] == ["b", "a"] * metrics["hops"]
    assert plan["horizon"] == metrics["horizon"]
    assert plan["horizon"] == pytest.approx(2 * metrics["hops"] * plan["tau"])
    assert plan["actions"][-1]["outer_state"] == pytest.approx([1.05, 0.02])
    assert metrics["fronts_final"] == 0
    assert metrics["final_sup_dist"] <= 1e-6


@pytest.mark.parametrize("K, omega_prime", [(1e3, [1.001, 0.0005]),
                                            (1e4, [1.0001, 0.0]),
                                            (1e6, [1.000001, 0.0])],
                         ids=["K_1e3", "K_1e4", "K_1e6"])
def test_steer_at_a_large_gas_K_exits_0(tmp_path, K, omega_prime):
    # the gas flux scales with K**2, and a shock's RH residual with it: an
    # absolute bound of 1e-10 made these runs exit 3 ("shock family 1: RH
    # residual 1.196e-10 above tolerance" at K = 1e3); the gas root
    # residual is a velocity, which scales with K: an absolute bound made
    # K = 1e6 exit 3 ("gas split residual 1.486e-10 above tolerance")
    config = _valid_config("steer")
    config["model"]["K"] = K
    config["omega_prime"] = omega_prime
    cfg = _write(tmp_path, "steer.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "metrics"]
    assert metrics["fronts_final"] == 0
    assert metrics["final_sup_dist"] <= 1e-6


def test_linear_steer_splits_a_jump_beyond_the_riemann_radius(tmp_path):
    # a linear model splits by projection, at any jump, as it solves
    # Riemann problems: one hop of 3.19 exited 3 ("|v - v'| = 3.19 exceeds
    # split radius 0.3")
    config = {"schema": "scenario-v1", "experiment": "steer",
              "model": {"kind": "linear", "A": [[-1.0, 0.2], [0.1, 1.0]]},
              "domain": [0.0, 1.0], "omega": [0.0, 0.0],
              "omega_prime": [3.0, -2.0], "delta_chain": 5.0}
    cfg = _write(tmp_path, "steer.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "metrics"]
    assert (metrics["hops"], metrics["fronts_final"]) == (1, 0)
    assert metrics["final_sup_dist"] <= 1e-6


@pytest.mark.parametrize("model, unit", [
    (dict(NEAR_SONIC_BLOCK), "riemann-coordinate-jump"),
    ({"kind": "custom-table",
      "terms": [[[1, [1, 1]]], [[0.5, [0, 2]], [1, [1, 0]]]], "p": 1,
      "box": [[0.5, 1.5], [-0.4, 0.4]]}, "left-eigenvector-projection"),
], ids=["gas", "custom-table"])
def test_counterexample_names_the_strength_unit_of_its_model(tmp_path, model,
                                                             unit):
    # a chartless model's strength is a left-eigenvector projection, which
    # the manifest of a custom-table run called a Riemann-coordinate jump
    config = {"schema": "scenario-v1", "experiment": "counterexample",
              "model": model, "domain": [0.0, 1.0],
              "initial": {"kind": "dense_shocks", "n": 7, "budget": 0.05,
                          "base": model.get("ref_state", [1.0, 0.0])},
              "horizon": 0.3, "epsilon": 0.02}
    cfg = _write(tmp_path, "counterexample.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "metrics"]
    assert metrics["strength_parametrization"] == unit


def test_model_failing_the_hypothesis_sweep_exits_4(tmp_path, capsys):
    # f = (-u, v) is linear: no family is genuinely nonlinear
    config = {"schema": "scenario-v1", "experiment": "counterexample",
              "model": {"kind": "custom-table",
                        "terms": [[[-1, [1, 0]]], [[1, [0, 1]]]], "p": 1,
                        "box": [[0.5, 1.5], [-0.5, 0.5]]},
              "domain": [0.0, 1.0],
              "initial": {"kind": "jumps", "left": [1.0, 0.0],
                          "jumps": [[0.5, [1.1, 0.0]]]}}
    cfg = _write(tmp_path, "linear_table.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: model rejected by the "
                          "hypothesis sweep:\n")
    rows = dict(line.split()[:2] for line in err.splitlines()[1:])
    assert rows["gnl_1"] == rows["gnl_2"] == "FAIL"
    # a linear flux has no curvature: its eigenvector fields do not bend
    assert rows["wedge_bend_1"] == rows["wedge_bend_2"] == "FAIL"
    assert rows["speed_signs"] == "pass"
    assert not out_dir.exists()


# every field of each experiment's valid config, and every key of the
# optional blocks the experiment reads, is set to each malformed value
_SWEEP_VALUES = [None, True, "x", -1, 0, [], [1.0], [[0.5, 1.5]], {"a": 1}]
_SWEEP_BLOCKS = {"curves": ["curves"], "counterexample": ["census", "density"]}


def _sweep_fields(experiment):
    config = _valid_config(experiment)
    fields = list(config) + [f"{name}.{key}" for name, block in config.items()
                             if isinstance(block, dict) for key in block]
    return fields + [f"{name}.{key}" for name in _SWEEP_BLOCKS.get(experiment, ())
                     for key in sorted(scenarios._SCHEMA[name])
                     if f"{name}.{key}" not in fields]


# then each numeric leaf of each experiment's valid config, its optional
# blocks filled in, is set to each extreme value (_SWEEP_VALUES holds -1 and 0)
_LEAF_VALUES = [math.nan, math.inf, -math.inf, 1e300, -1e-300]
_LEAF_BLOCKS = {
    "curves": {"curves": {"u0": [1.0, 0.0], "family": 1, "sigma_min": -0.1,
                          "sigma_max": 0.1, "samples": 5}},
    "counterexample": {
        "census": {"times": [0.0, 1.0], "floor": 1e-6, "creation_floor": 1e-11,
                   "probe": [0.01, 0.12]},
        "density": {"times": [0.5, 1.0], "cells": 8, "probe": [0.01, 0.12]}},
}


def _numeric_leaves(node, path=()):
    """The paths of the int and float leaves below node, bools excluded."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items
                for leaf in _numeric_leaves(value, path + (key,))]
    return [path] if type(node) in (int, float) else []


def _finite_numbers(node):
    """Whether every float below node is finite."""
    if isinstance(node, (dict, list)):
        values = node.values() if isinstance(node, dict) else node
        return all(map(_finite_numbers, values))
    return not isinstance(node, float) or math.isfinite(node)


def _fuzz_cases(experiment):
    """(case, config) pairs: each field set to each malformed value, then
    each numeric leaf to each extreme value."""
    for field in _sweep_fields(experiment):
        for value in _SWEEP_VALUES:
            config = _valid_config(experiment)
            *blocks, last = field.split(".")
            target = config
            for name in blocks:
                target = target.setdefault(name, {})
            target[last] = value
            yield (field, value), config
    base = {**_valid_config(experiment), **_LEAF_BLOCKS.get(experiment, {})}
    assert validate_config(base) == []
    for path in _numeric_leaves(base):
        for value in _LEAF_VALUES:
            config = json.loads(json.dumps(base))
            *blocks, last = path
            target = config
            for name in blocks:
                target = target[name]
            target[last] = value
            yield (path, value), config


@pytest.mark.parametrize("experiment", scenarios.EXPERIMENTS)
def test_no_valid_config_exits_1(tmp_path, capsys, experiment):
    cfg = tmp_path / "case.json"
    out_dir = tmp_path / "out"
    failures = []
    for case, config in _fuzz_cases(experiment):
        cfg.write_text(json.dumps(config))
        for argv in (["validate"], ["run", "--out", str(out_dir), "--quiet"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv + ["--config", str(cfg)])
                except Exception as exc:  # reported below, with the case
                    code = f"{type(exc).__name__}: {exc}"
            if (code not in (0, 2, 3, 4) or (code == 2 and out_dir.exists())
                    or caught):
                failures.append((*case, argv[0], code,
                                 [str(w.message) for w in caught]))
        manifest = out_dir / "manifest.json"
        if manifest.exists() and not _finite_numbers(
                json.loads(manifest.read_text())["metrics"]):
            failures.append((*case, "non-finite metric"))
        shutil.rmtree(out_dir, ignore_errors=True)
    capsys.readouterr()
    assert failures == []


@pytest.mark.parametrize("experiment", scenarios.EXPERIMENTS)
def test_manifest_config_validates_and_reruns_byte_identical(tmp_path, experiment):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = _write(tmp_path, "given.json", _valid_config(experiment))
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    config = json.loads((out1 / "manifest.json").read_text())["config"]
    assert validate_config(config) == []
    cfg = _write(tmp_path, "manifest_config.json", config)
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_readme_lists_the_keys_of_the_schema():
    """The README's Config keys table names the required and the optional
    keys of each table of _SCHEMA, and each top-level default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys")[1].split("\n#")[0]

    def names(cell):
        return set(re.findall(r"`([^`]+)`", cell))

    kinded = ("experiment", "model", "initial")
    listed = {}
    for line in section.splitlines()[1:]:
        if not line.startswith("| ") or "required keys" in line:
            continue
        label, required, optional = line.strip("|").split("|")
        if label.strip() == "every experiment":
            common = names(required), names(optional)
        word = label.split()[0]
        for name in names(label):
            listed[word if word in kinded else "block", name] = (
                names(required), names(optional))
    tables = {("block", name): table for name, table in scenarios._SCHEMA.items()
              if name not in kinded}
    tables.update({(group, kind): table for group in kinded
                   for kind, table in scenarios._SCHEMA[group].items()})
    assert set(listed) == set(tables)
    for which, table in tables.items():
        required, optional = listed[which]
        if which[0] == "experiment":
            required, optional = required | common[0], optional | common[1]
        assert required == {key for key, (default, _) in table.items()
                            if default == scenarios._REQUIRED}, which
        assert optional == set(table) - required, which
        for key, (default, _) in table.items():
            if default not in (None, scenarios._REQUIRED):
                assert f"`{key}` ({default})" in section, (which, key)


def test_overflowing_table_flux_exits_3(tmp_path, capsys):
    # v ** -10**18 overflows at v = 0.1: the flux Jacobian at ul holds inf
    model = json.loads(json.dumps(TABLE_BLOCK))
    model["terms"][0][0][1] = [1, -10 ** 18]
    config = {"schema": "scenario-v1", "experiment": "riemann", "model": model,
              "riemann": {"ul": [1.0, 0.1], "ur": [1.05, 0.1]}}
    cfg = _write(tmp_path, "overflow.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == (
        "domain error: flux Jacobian is not finite at [1.05 0.1 ]\n")


# J = 1e308 [[1.7, 1], [1, 1.5]] is finite, but its larger speed, about
# 2.6e308, is not a float
_HUGE_SPEED_TERMS = [[[1.7e308, [1, 0]], [1e308, [0, 1]]],
                     [[1e308, [1, 0]], [1.5e308, [0, 1]]]]


@pytest.mark.parametrize("n, state", [(2, "[1.   1.05]"),
                                      (3, "[1.   1.05 1.  ]")])
def test_speed_beyond_the_largest_float_exits_3(tmp_path, capsys, n, state):
    # the 2x2 closed form once raised OverflowError (exit 1), and LAPACK's
    # inf speed of the 3x3 was reported as coincident speeds
    terms = [[[c, e + [0] * (n - 2)] for c, e in row]
             for row in _HUGE_SPEED_TERMS]
    terms += [[[1.0, [0, 0, 2]]]] * (n - 2)
    model = {"kind": "custom-table", "p": 0, "box": [[0.5, 1.5]] * n,
             "terms": terms}
    config = {"schema": "scenario-v1", "experiment": "riemann", "model": model,
              "riemann": {"ul": [1.0] * n,
                          "ur": [1.0, 1.05] + [1.0] * (n - 2)}}
    cfg = _write(tmp_path, "huge_speed.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"domain error: characteristic speeds are not finite at {state}\n")


def test_riemann_middle_state_below_the_box_exits_3(tmp_path, capsys):
    # the two rarefactions out of (0.92, -/+0.08) meet at density 0.845,
    # below the box: the config is valid, and the run prints the middle
    # state as numpy does
    config = {"schema": "scenario-v1", "experiment": "riemann",
              "model": {**GAS_BLOCK, "box": [[0.9, 1.1], [-0.4, 0.4]]},
              "riemann": {"ul": [0.92, -0.08], "ur": [0.92, 0.08]}}
    cfg = _write(tmp_path, "mid_outside.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "domain error: state [0.8448667 0.       ] outside admissible domain\n")


def test_census_counts_only_fronts_of_kind_shock(tmp_path):
    # a linear model's fronts are contacts, whatever the sign of their
    # strength: the census once listed 7, 6, 5, 4 and 3 family-1 shocks here
    config = {"schema": "scenario-v1", "experiment": "counterexample",
              "model": {"kind": "linear", "A": [[-1.0, 0.2], [0.1, 1.0]]},
              "domain": [0.0, 1.0],
              "initial": {"kind": "dense_shocks", "n": 7, "budget": 0.05},
              "horizon": 0.5}
    cfg = _write(tmp_path, "linear.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    census = json.loads((out_dir / "census.json").read_text())
    assert [r["time"] for r in census] == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert all(family["positions"] == [] for r in census
               for family in r["families"].values())
    snap = json.loads((out_dir / "snapshots" / "snap_000.json").read_text())
    assert set(snap["kinds"]) == {"contact"}
    assert max(snap["sigmas"]) < -1e-3


# -- the model cache: one model per distinct block, its facts computed once --


@pytest.fixture
def cold_models(monkeypatch):
    """No model built yet: the next build of each block computes its facts."""
    monkeypatch.setattr(scenarios, "_built", {})


def _readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _child_env():
    """The environment of a fresh process that imports this package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}


def test_runs_import_no_scipy(tmp_path):
    # the chartless rarefaction integrates with the package's own DOP853,
    # so a fresh process runs the README counterexample and a custom-table
    # Riemann problem, which integrates rarefactions, without any scipy
    script = """
import json, sys
import fronttrack.cli
from fronttrack import scenarios
scenarios.run_scenario(json.loads(sys.argv[1]), sys.argv[2])
assert not [m for m in sys.modules if m.startswith("scipy")]
scenarios.run_scenario(json.loads(sys.argv[3]), sys.argv[4])
assert not [m for m in sys.modules if m.startswith("scipy")]
"""
    table = {"schema": "scenario-v1", "experiment": "riemann",
             "model": TABLE_BLOCK,
             "riemann": {"ul": [1.0, 0.0], "ur": [1.05, 0.1]}}
    subprocess.run([sys.executable, "-c", script,
                    json.dumps(_readme_config()), str(tmp_path / "readme"),
                    json.dumps(table), str(tmp_path / "table")],
                   env=_child_env(), check=True)
    assert (tmp_path / "readme" / "manifest.json").is_file()
    manifest = json.loads((tmp_path / "table" / "manifest.json").read_text())
    assert manifest["metrics"]["residual"] <= 1e-10


def _run_cli_child(cfg, out):
    """``fronttrack run`` in a fresh process; a run that has not ended after
    20 s fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "fronttrack.cli", "run", "--config", cfg,
         "--out", str(out), "--quiet"],
        env=_child_env(), capture_output=True, text=True, timeout=20)


def test_chartless_rarefaction_where_gnl_nears_zero_exits_0(tmp_path):
    # grad(lambda_1) . r_1 is above 0.03 at both ends of this curve but
    # nears 0 between them, where the Hessian rule flips r_1: a field
    # oriented by it at every stage made the integrator reject step after
    # step, and the run had not ended after 20 s
    config = {"schema": "scenario-v1", "experiment": "curves",
              "model": {"kind": "custom-table",
                        "terms": [[[0.5, [2, 0]], [1.0, [0, 1]]],
                                  [[1.0, [1, 0]], [0.5, [0, 2]]]],
                        "p": 1, "box": [[-0.5, 0.5], [-0.5, 0.5]]},
              "curves": {"u0": [0.051, -0.017], "family": 1,
                         "branch": "rarefaction", "sigma_min": 0.109,
                         "sigma_max": 0.109, "samples": 1}}
    cfg = _write(tmp_path, "curves.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    proc = _run_cli_child(cfg, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    header, row = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert header == "sigma,u0,u1,speed"
    assert all(map(math.isfinite, map(float, row.split(","))))


def test_steering_chain_beyond_the_event_budget_exits_4(tmp_path):
    # the chain's Riemann-coordinate length grows with K: at K = 1e100 it
    # has about 1.4e100 points, and each hop's waves must leave the domain,
    # so the run could only end at MAX_EVENTS; it is refused before any
    # point is built
    config = _valid_config("steer")
    config["model"]["K"] = 1e100
    cfg = _write(tmp_path, "steer.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    proc = _run_cli_child(cfg, tmp_path / "out")
    assert proc.returncode == 4
    assert proc.stderr == ("invariant violation: steering chain of 1.4e+100 "
                           "points exceeds MAX_EVENTS=2000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["readme", "steer", "stabilize"])
def test_warm_runs_write_the_bytes_of_a_cold_run(tmp_path, cold_models, name):
    config = _readme_config() if name == "readme" else _valid_config(name)
    cfg = _write(tmp_path, "given.json", config)
    for name in ("cold", "warm"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name),
                     "--quiet"]) == 0
    cold = _tree(tmp_path / "cold")
    assert _tree(tmp_path / "warm") == cold
    assert len(scenarios._built) == 1
    sweep = {**config, "sweep": [{"epsilon": 0.01}, {"epsilon": 0.01}]}
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "sweep"),
                 "--quiet"]) == 0
    for k in range(2):
        assert _tree(tmp_path / "sweep" / f"sweep_{k:03d}") == cold


_CALIBRATION_FAILS = {
    # the calibration box (the working box shrunk by a quarter per side) is
    # entirely supersonic: no draw is admissible
    "schema": "scenario-v1", "experiment": "evolve",
    "model": {"kind": "gas", "K": 1.0, "gamma": 2.0,
              "box": [[0.5, 1.0], [0.8, 1.6]]},
    "domain": [0.0, 1.0],
    "initial": {"kind": "constant", "value": [0.9, 0.85]},
}
_SWEEP_FAILS = {
    # f = (-u, v) is linear: no family is genuinely nonlinear
    "schema": "scenario-v1", "experiment": "counterexample",
    "model": {"kind": "custom-table",
              "terms": [[[-1, [1, 0]]], [[1, [0, 1]]]], "p": 1,
              "box": [[0.5, 1.5], [-0.5, 0.5]]},
    "domain": [0.0, 1.0],
    "initial": {"kind": "jumps", "left": [1.0, 0.0],
                "jumps": [[0.5, [1.1, 0.0]]]},
}
_SPEED_FLOOR_FAILS = {
    # the second family moves at 1e-7, below the speed floor
    "schema": "scenario-v1", "experiment": "steer",
    "model": {"kind": "linear", "A": [[-1.0, 0.0], [0.0, 1e-7]]},
    "domain": [0.0, 1.0], "omega": [0.0, 0.0], "omega_prime": [0.01, 0.0],
}


@pytest.mark.parametrize("config, code, message", [
    (_CALIBRATION_FAILS, 4, "invariant violation: interaction-constant "
                            "calibration accepted 0 of 20000 draws"),
    (_SWEEP_FAILS, 4, "invariant violation: model rejected by the "
                      "hypothesis sweep:"),
    (_SPEED_FLOOR_FAILS, 3, "domain error: characteristic speed 1.000e-07 "
                            "below floor 1.0e-06"),
], ids=["calibration", "hypothesis-sweep", "speed-floor"])
def test_failures_are_not_cached(tmp_path, capsys, monkeypatch, cold_models,
                                 config, code, message):
    calibrations = []
    calibrate = tracking._calibrate

    def counted(*args):
        calibrations.append(args)
        return calibrate(*args)

    monkeypatch.setattr(tracking, "_calibrate", counted)
    cfg = _write(tmp_path, "fails.json", config)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    for k in range(2):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / f"o{k}"),
                     "--quiet"]) == code
        assert capsys.readouterr().err.startswith(message)
    assert len(calibrations) == (2 if config is _CALIBRATION_FAILS else 0)


def test_blocks_differing_in_one_key_get_their_own_facts(cold_models):
    base = {"kind": "gas", "K": 1.0, "gamma": 2.0,
            "box": [[0.95, 1.10], [0.88, 1.00]], "ref_state": [1.0, 0.98],
            "min_speed": 0.002}
    model = scenarios.build_model(base)
    assert scenarios.build_model(dict(reversed(list(base.items())))) is model
    tau = crossing_time(model, (0.0, 1.0))
    report = verify_hypotheses(model, samples_per_axis=6)
    for key, value in [("min_speed", 0.004),
                       ("box", [[0.95, 1.10], [0.80, 1.00]]),
                       ("ref_state", [1.0, 0.99])]:
        other = scenarios.build_model({**base, key: value})
        assert other is not model and other._facts == {}
        assert verify_hypotheses(other, samples_per_axis=6) is not report
        if key != "ref_state":   # the reference state moves no speed
            assert crossing_time(other, (0.0, 1.0)) != tau
    assert scenarios.build_model(base) is model
    assert crossing_time(model, (0.0, 1.0)) == tau
    assert verify_hypotheses(model, samples_per_axis=6) is report
