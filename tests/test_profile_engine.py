"""scripts/profile_engine.py: its cheaper sections run, and put back the
library functions they patch to count calls."""

import importlib.util
from pathlib import Path

import ribetkit.genmat as genmat
import ribetkit.linalg as linalg
import ribetkit.ribet.specialize as specialize
import ribetkit.veriharness.suites as suites

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_engine.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("profile_engine", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_sections_run_and_restore_what_they_patch(capsys):
    script = _load_script()
    patched = [linalg._eliminate, specialize._try_generate, genmat.in_ideal, suites.in_ideal]
    for section in (script.specialization_phases, script.cached_layers, script.module_path, script.trace_suite):
        section()
    after = [linalg._eliminate, specialize._try_generate, genmat.in_ideal, suites.in_ideal]
    assert all(a is b for a, b in zip(after, patched))
    out = capsys.readouterr().out
    assert "row reductions per generation attempt" in out
    assert "questions decided / ids" in out
