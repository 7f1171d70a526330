"""scripts/report_diff.py: which differences between two `verify`
reports count, and its exit codes."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"

REPORT = {
    "budget": {"degree": 40, "steps": 1000000},
    "checks": [
        {"anchor": "l:tr-char", "id": "trace-r2-X1", "runtime_s": 0.001, "status": "pass", "witness": ""},
        {"anchor": "l:ei", "id": "tau-negative", "runtime_s": 0.02, "status": "pass",
         "witness": "dropped generator must break invariance"},
    ],
    "generated_at": "2026-01-01T00:00:00Z",
    "prime": 10007,
    "seeds": [0, 1],
    "suite": "all",
    "summary": {"fail": 0, "pass": 2, "timeout": 0},
}


def run(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths], capture_output=True, text=True, timeout=60
    )


def test_timestamps_and_runtimes_are_ignored(tmp_path):
    b = copy.deepcopy(REPORT)
    b["generated_at"] = "2026-02-02T12:34:56Z"
    for check in b["checks"]:
        check["runtime_s"] *= 7
    out = run(tmp_path, REPORT, b)
    assert out.returncode == 0 and out.stdout == ""


def _status(doc):
    doc["checks"][0]["status"] = "fail"


def _witness(doc):
    doc["checks"][1]["witness"] = "other witness"


def _missing(doc):
    del doc["checks"][1]


def _prime(doc):
    doc["prime"] = 101


@pytest.mark.parametrize(
    "change, named",
    [
        (_status, "check trace-r2-X1"),
        (_witness, "check tau-negative"),
        (_missing, "check tau-negative"),
        (_prime, "field prime"),
    ],
)
def test_a_real_difference_exits_1_and_is_named(tmp_path, change, named):
    b = copy.deepcopy(REPORT)
    change(b)
    out = run(tmp_path, REPORT, b)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [named]


def test_wrong_argument_count_exits_2(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(REPORT), encoding="utf-8")
    for args in ([], [str(path)], [str(path)] * 3):
        out = subprocess.run(
            [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 2
        assert "report_diff.py A.json B.json" in out.stderr
