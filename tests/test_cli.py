import json
import re
import shutil
from pathlib import Path

import pytest

from fronttrack import scenarios, tracking
from fronttrack.control import crossing_time
from fronttrack.curves import lax_curve
from fronttrack.cli import main
from fronttrack.errors import DomainError
from fronttrack.models import verify_hypotheses
from fronttrack.scenarios import validate_config

GAS_BLOCK = {"kind": "gas", "K": 1.0, "gamma": 2.0,
             "box": [[0.5, 1.5], [-0.4, 0.4]]}

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


def test_epsilon_override_is_validated_and_recorded(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", _evolve_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--epsilon", "-1", "--quiet"]) == 2
    assert "epsilon=-1.0 must be positive" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--epsilon", "0.02", "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["epsilon"] == 0.02


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
    assert (out_dir / "contraction_loglog.dat").exists()


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
    assert (out_dir / "kappa_vs_t.dat").exists()
    assert (out_dir / "census_gap_vs_t.dat").exists()


def test_sweep_mode_writes_subdirectories(tmp_path):
    config = _evolve_config()
    config["sweep"] = [{"epsilon": 0.02}, {"epsilon": 0.01}]
    cfg = _write(tmp_path, "sweep.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    assert (out_dir / "sweep_000" / "manifest.json").exists()
    assert (out_dir / "sweep_001" / "manifest.json").exists()


def test_sweep_mode_with_worker_pool(tmp_path):
    config = _evolve_config()
    config["sweep"] = [{"horizon": 0.4}, {"horizon": 0.8}]
    config["workers"] = 2
    cfg = _write(tmp_path, "sweep.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--quiet"]) == 0
    horizons = []
    for sub in ("sweep_000", "sweep_001"):
        manifest = json.loads((out_dir / sub / "manifest.json").read_text())
        horizons.append(manifest["config"]["horizon"])
        assert manifest["metrics"]["events"] >= 0
    assert horizons == [0.4, 0.8]


@pytest.mark.parametrize("key, value, diagnostic", [
    ("sweep", 3, "sweep=3 must be a list"),
    ("sweep", ["x"], "sweep=['x'] must be a list of objects"),
    ("sweep", [{"epsilon": 0.02}, {"speed": 2}], "sweep[1]: unknown key 'speed'"),
    ("sweep", [{"epsilon": 0.02}, {"epsilon": -1.0}],
     "sweep[1]: epsilon=-1.0 must be positive"),
    ("workers", "two", "workers='two' must be a positive integer"),
    ("workers", 0, "workers=0 must be a positive integer"),
    ("sweep", [{"sweep": [{"horizon": 0.5}]}],
     "sweep[0]: a sweep variant cannot hold a sweep"),
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


def test_domain_error_during_run_exits_3(tmp_path, monkeypatch, capsys):
    def leaves_domain(config, model, out):
        raise DomainError("state [3. 0.] outside admissible domain")
    monkeypatch.setitem(scenarios._RUNNERS, "evolve", leaves_domain)
    cfg = _write(tmp_path, "evolve.json", _evolve_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "domain error: state [3. 0.] outside admissible domain\n"


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
     "phi must have sorted xs and len(xs) + 1 values of 2 numbers"),
    ("linear_control", "psi.values", [[0.3]], "psi must have sorted xs"),
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
    assert diagnostic in capsys.readouterr().err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("experiment", scenarios.EXPERIMENTS)
def test_no_valid_config_exits_1(tmp_path, capsys, experiment):
    cfg = tmp_path / "case.json"
    failures = []
    for field in _sweep_fields(experiment):
        for value in _SWEEP_VALUES:
            config = _valid_config(experiment)
            *blocks, last = field.split(".")
            target = config
            for name in blocks:
                target = target.setdefault(name, {})
            target[last] = value
            cfg.write_text(json.dumps(config))
            out_dir = tmp_path / "out"
            for argv in (["validate"], ["run", "--out", str(out_dir), "--quiet"]):
                try:
                    code = main(argv + ["--config", str(cfg)])
                except Exception as exc:  # reported below, with the case
                    code = f"{type(exc).__name__}: {exc}"
                if code not in (0, 2, 3, 4) or (code == 2 and out_dir.exists()):
                    failures.append((field, value, argv[0], code))
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
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "domain error: flux Jacobian is not finite at [1.05 0.1 ]")


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
