#!/usr/bin/env python3
"""Compare two `verify` JSON reports, ignoring what may differ between
replays: the `generated_at` timestamp and each check's `runtime_s`.

Exits 0 when the reports match.  Otherwise prints each differing
top-level field and each check id that is missing on one side or whose
anchor, status or witness differs, and exits 1.

Run: python scripts/report_diff.py A.json B.json
"""

import json
import sys

VOLATILE_TOP = {"generated_at", "checks"}
VOLATILE_CHECK = {"runtime_s"}


def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    checks = {
        c["id"]: {k: v for k, v in c.items() if k not in VOLATILE_CHECK}
        for c in doc.get("checks", [])
    }
    top = {k: v for k, v in doc.items() if k not in VOLATILE_TOP}
    return top, checks


def diff(a_path, b_path) -> list[str]:
    (a_top, a_checks), (b_top, b_checks) = load(a_path), load(b_path)
    out = [
        f"field {key}"
        for key in sorted(a_top.keys() | b_top.keys())
        if a_top.get(key) != b_top.get(key)
    ]
    out += [
        f"check {cid}"
        for cid in sorted(a_checks.keys() | b_checks.keys())
        if a_checks.get(cid) != b_checks.get(cid)
    ]
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = diff(*argv)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
