"""Command-line entry point: scenario runner and report utilities.

Exit codes: 0 success, 2 config error or a report that `plots` cannot read,
3 solver divergence, a state leaving the admissible domain, a non-finite
flux Jacobian or characteristic speed, or speeds that are not real and
distinct, 4 invariant violation.  FAILURES maps each error class to its code.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     DomainError, HyperbolicityError)
from . import control, scenarios

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# error class, exit code, stderr prefix: the first row the error is an
# instance of applies, so RadiusError (a ConvergenceError) is solver divergence
FAILURES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (ContractViolationError, EXIT_INVARIANT, "invariant violation"),
    (ConvergenceError, EXIT_SOLVER, "solver divergence"),
    (DomainError, EXIT_SOLVER, "domain error"),
    (HyperbolicityError, EXIT_SOLVER, "hyperbolicity error"),
    (OSError, EXIT_CONFIG, "error"),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fronttrack",
        description="Front tracking and boundary control for 1-D "
                    "conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write reports")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--quiet", action="store_true")
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


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message)


def _cmd_run(args):
    # run_scenario validates one config; a sweep is validated whole, every
    # variant included, before its first variant writes a file
    config = scenarios.read_config(args.config)
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


def _gap_lines(rows):
    by_t = {}
    for t, family, gap in rows:
        by_t.setdefault(t, {})[family] = gap
    return [[t, *(gaps[f] for f in sorted(gaps))]
            for t, gaps in sorted(by_t.items())]


# report, .dat file, .dat header, report columns read, their rows -> .dat rows
PLOTS = (
    ("contraction.csv", "contraction_loglog.dat", "# k  loglog_inv_delta",
     ("k", "sup_dist", "tv"),
     lambda rows: [[k, math.log(math.log(1.0 / max(sup, tv)))]
                   for k, sup, tv in rows
                   if control.LOGLOG_FLOOR < max(sup, tv) < 1.0]),
    ("density_f1.csv", "kappa_vs_t.dat", "# t  kappa_hat", ("t", "kappa_hat"),
     lambda rows: rows),
    ("census.csv", "census_gap_vs_t.dat", "# t  largest_gap_per_family",
     ("t", "family", "largest_gap"), _gap_lines),
)


def _cmd_plots(args):
    out = Path(args.out)
    made = []
    for report, dat, header, names, to_lines in PLOTS:
        path = out / report
        if not path.exists():
            continue
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                rows = [[float(row.get(n)) for n in names] for row in reader]
            except (TypeError, ValueError):
                raise ConfigError(f"{path} line {reader.line_num}: columns "
                                  f"{names} must hold numbers") from None
        lines = [scenarios.text_row(line, " ") for line in to_lines(rows)]
        (out / dat).write_text("\n".join([header, *lines]) + "\n")
        made.append(dat)
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
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        _, code, prefix = next(r for r in FAILURES if isinstance(exc, r[0]))
        for line in getattr(exc, "diagnostics", [exc]):
            print(f"{prefix}: {line}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
