"""Command-line entry point: scenario runner and report utilities.

Exit codes: 0 success, 2 config error, 3 solver divergence, a state
leaving the admissible domain or characteristic speeds that are not real and
distinct, 4 invariant violation.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     DomainError, HyperbolicityError)
from . import scenarios

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fronttrack",
        description="Front tracking and boundary control for 1-D "
                    "conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_out=True):
        p.add_argument("--config", required=True, help="scenario JSON file")
        if need_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override front-tracking accuracy; only the "
                            "experiments that track fronts read it, so on "
                            "riemann, curves and linear_control it exits 2")
        p.add_argument("--quiet", action="store_true")

    add_common(sub.add_parser("run", help="run a scenario and write reports"))
    v = sub.add_parser("validate", help="check a scenario config")
    v.add_argument("--config", required=True)
    v.add_argument("--quiet", action="store_true")

    r = sub.add_parser("riemann", help="print a Riemann solution table")
    r.add_argument("--config", required=True)
    r.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("plots", help="emit gnuplot-ready .dat files from a "
                                     "finished run directory")
    p.add_argument("--out", required=True, help="run directory to read and "
                                                "write into")
    p.add_argument("--quiet", action="store_true")
    return parser


def _overrides(args):
    ov = {}
    if getattr(args, "epsilon", None) is not None:
        ov["epsilon"] = args.epsilon
    return ov


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message)


def _cmd_run(args):
    # run_scenario validates one config; a sweep is validated whole, every
    # variant included, before its first variant writes a file
    config = scenarios.read_config(args.config)
    config.update(_overrides(args))
    if config.get("sweep"):
        scenarios.checked_model(config)
        manifests = scenarios.run_sweep(config, args.out)
        _say(args, f"ran {len(manifests)} sweep scenarios into {args.out}")
    else:
        manifest = scenarios.run_scenario(config, args.out)
        _say(args, f"wrote {len(manifest['files'])} files to {args.out}")
        for key, val in sorted(manifest["metrics"].items()):
            _say(args, f"  {key}: {val}")
    return EXIT_OK


def _cmd_validate(args):
    diags = scenarios.validate_config(scenarios.read_config(args.config))
    for d in diags:
        print(d)
    if diags:
        return EXIT_CONFIG
    _say(args, "config is valid")
    return EXIT_OK


def _cmd_riemann(args):
    config = scenarios.read_config(args.config)
    model = scenarios.checked_model(config)
    if config["experiment"] != "riemann":
        raise ConfigError(f"the riemann command needs a 'riemann' experiment, "
                          f"not {config['experiment']!r}")
    payload = scenarios.riemann_payload(config, model)
    if args.as_json:
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(scenarios.format_riemann_table(payload))
    return EXIT_OK


def _cmd_plots(args):
    out = Path(args.out)
    made = []
    contraction = out / "contraction.csv"
    if contraction.exists():
        rows = contraction.read_text().strip().splitlines()[1:]
        lines = ["# k  loglog_inv_delta"]
        for row in rows:
            k, _t, sup, tv, _ratio = row.split(",")
            delta = max(float(sup), float(tv))
            if 0.0 < delta < 1.0:
                lines.append(f"{int(k)} {math.log(math.log(1.0 / delta)):.17g}")
        (out / "contraction_loglog.dat").write_text("\n".join(lines) + "\n")
        made.append("contraction_loglog.dat")
    density = out / "density_f1.csv"
    if density.exists():
        rows = density.read_text().strip().splitlines()[1:]
        lines = ["# t  kappa_hat"]
        for row in rows:
            t, _m, kappa, _tot = row.split(",")
            lines.append(f"{float(t):.17g} {float(kappa):.17g}")
        (out / "kappa_vs_t.dat").write_text("\n".join(lines) + "\n")
        made.append("kappa_vs_t.dat")
    census = out / "census.csv"
    if census.exists():
        rows = census.read_text().strip().splitlines()[1:]
        by_t = {}
        for row in rows:
            t, family, _n, gap, _c, _tv = row.split(",")
            by_t.setdefault(float(t), {})[int(family)] = float(gap)
        lines = ["# t  largest_gap_per_family"]
        for t in sorted(by_t):
            gaps = " ".join(f"{by_t[t][f]:.17g}" for f in sorted(by_t[t]))
            lines.append(f"{t:.17g} {gaps}")
        (out / "census_gap_vs_t.dat").write_text("\n".join(lines) + "\n")
        made.append("census_gap_vs_t.dat")
    if not made:
        print("no plottable CSV files found", file=sys.stderr)
        return EXIT_CONFIG
    _say(args, f"wrote {', '.join(made)}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "riemann": _cmd_riemann,
        "plots": _cmd_plots,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConvergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except HyperbolicityError as exc:
        print(f"hyperbolicity error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
