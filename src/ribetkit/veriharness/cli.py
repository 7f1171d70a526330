"""The ``verify`` command line interface.

    verify run <suite> [--config PATH] [--seed N] [--prime P]
                       [--jobs N] [--out PATH]
    verify list

--jobs N runs the checks in up to min(N, CPU count) worker processes.
Exit codes: 0 when every executed check passes, 2 on any failure,
3 on a timeout with no failure.  VERIFY_BUDGET_STEPS overrides the
engine step budget.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import StructuralError
from .config import load_config
from .suites import SUITES, list_suites, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="run exact verification suites and emit JSON reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one suite (or 'all')")
    runp.add_argument("suite", help="suite name; see 'verify list'")
    runp.add_argument("--config", help="flat key=value config file", default=None)
    runp.add_argument("--seed", type=int, default=None, help="base seed for randomized checks")
    runp.add_argument("--prime", type=int, default=None, help="specialization prime")
    runp.add_argument("--jobs", type=int, default=None, help="worker processes, capped at the CPU count")
    runp.add_argument("--out", default=None, help="report output path (JSON)")

    sub.add_parser("list", help="list suites with anchors")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "list" and args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; try 'verify list'", file=sys.stderr)
        return 2
    try:
        if args.command == "list":  # list_suites loads each suite's default config
            for entry in list_suites():
                anchors = ", ".join(entry["anchors"])
                print(f"{entry['name']:24s} {entry['description']}")
                print(f"{'':24s} anchors: {anchors}")
            return 0
        cfg = load_config(
            args.suite,
            path=args.config,
            seed=args.seed,
            prime=args.prime,
            jobs=args.jobs,
            out=args.out,
        )
        report = run_suite(cfg)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    for check in report.checks:
        marker = {"pass": "ok", "fail": "FAIL", "timeout": "TIMEOUT"}[check.status]
        line = f"[{marker:7s}] {check.id} ({check.anchor}, {check.runtime_s}s)"
        if check.witness and check.status != "pass":
            line += f" :: {check.witness}"
        print(line)
    print(
        f"suite {report.suite}: {summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['timeout']} timeout"
    )
    if cfg.out_path:
        print(f"report written to {cfg.out_path}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
