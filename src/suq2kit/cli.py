"""Command line front end.

    suq2kit run --suite <name> --q <float> --lmax <half-int> [--t-grid N]
                [--n N] [--D N] [--tol-identity X] [--tol-decay X]
                --out report.json [--csv DIR] [--seed N]
    suq2kit suites

Exit codes: 0 when every check passes, 1 on a verification failure, 2 on a
usage error.  Half-integers are passed as "20" or "41/2".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .qarith import HalfInt
from .report import emit_report
from .suites import SuiteConfig, UsageError, list_suites, run_suite

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SuiteConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="suq2kit")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one verification suite")
    runp.add_argument("--suite", required=True)

    def option(flag, dest, kind, text=None):
        runp.add_argument(flag, dest=dest, type=kind, default=_DEFAULTS[dest], help=text)

    option("--q", "q", float)
    option("--lmax", "lmax", HalfInt.parse, 'spin cutoff, "n" or "n/2"')
    option("--t-grid", "t_grid", int)
    option("--n", "n", int, "fundamental dimension for the integer suites")
    option("--D", "d_trunc", int, "truncation degree of the resolution")
    option("--tol-identity", "tol_identity", float)
    option("--tol-decay", "tol_decay", float)
    option("--seed", "seed", int)
    runp.add_argument("--qmatrix", type=str, default=None,
                      help="JSON file with a parameter matrix as rows of "
                           "[re, im] pairs (foq and all suites)")
    runp.add_argument("--out", type=str, default=None, help="JSON report path")
    runp.add_argument("--csv", type=str, default=None, dest="csv_dir",
                      help="directory for decay-table CSV files")

    sub.add_parser("suites", help="list the suite catalog")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "suites":
        catalog = list_suites()
        print(json.dumps(catalog, indent=2))
        return 0

    qmatrix = None
    if args.qmatrix is not None:
        try:
            with open(args.qmatrix) as fh:
                qmatrix = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read --qmatrix {args.qmatrix!r}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        config = SuiteConfig(
            suite=args.suite, q=args.q, lmax=args.lmax, tol_identity=args.tol_identity,
            tol_decay=args.tol_decay, t_grid=args.t_grid, n=args.n,
            d_trunc=args.d_trunc, seed=args.seed, qmatrix=qmatrix)
        report = run_suite(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    emit_report(report, out_path=args.out, csv_dir=args.csv_dir)
    for check in report.checks:
        marker = "PASS" if check.passed else "FAIL"
        print(f"[{marker}] {check.name}: value={check.value:.6e}"
              + ("" if check.threshold is None else f" threshold={check.threshold:.2e}"))
    print(f"suite {report.suite}: {'pass' if report.overall else 'FAIL'}"
          f" ({len(report.checks)} checks, {report.wall_time_ms:.0f} ms)")
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
