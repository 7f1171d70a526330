"""scripts/profile_engine.py: its cheaper sections run, and put back the
library functions they patch to count calls."""

import importlib.util
import re
from pathlib import Path

import ribetkit.groebner as groebner
import ribetkit.linalg as linalg
import ribetkit.ribet.specialize as specialize
from ribetkit.exactpoly import Polynomial

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_engine.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("profile_engine", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_sections_run_and_restore_what_they_patch(capsys):
    script = _load_script()
    def patchable():
        return [linalg._eliminate, specialize._try_generate, groebner._engine_for, Polynomial.__mul__,
                Polynomial.__add__, groebner._signature_basis, groebner._reduced_basis, groebner._Engine.to_vector]

    patched = patchable()
    for section in (script.cold_constructions, script.specialization_phases, script.cached_layers,
                    script.module_path, script.trace_suite, script.det_closed_form, script.polynomial_layer,
                    script.gb_both_cores):
        section()
    assert all(a is b for a, b in zip(patchable(), patched))
    out = capsys.readouterr().out
    assert "row reductions per generation attempt" in out
    assert "formal constructions of the corpus shapes (cold)" in out
    control = [line for line in out.splitlines() if line.startswith("  perturbed control: perturb_alpha")]
    assert len(control) == 1 and control[0].endswith("-> 200 of 200 break det(E') = 0")
    layer = [line for line in out.splitlines() if line.startswith("polynomial layer: det(E')")]
    assert len(layer) == 1 and "products" in layer[0] and "sums" in layer[0]
    # None of the 56 ids reaches the engine.
    calls = [line for line in out.splitlines() if line.startswith("  engine calls / ids")]
    assert len(calls) == 1 and calls[0].endswith("-> 0 / 56")
    det = [line for line in out.splitlines() if line.startswith("det r=3 (1,2,3,1): cofactors, then in_ideal")]
    assert len(det) == 1 and re.search(r"-> True; in_ideal \d+\.\d{3}s -> True$", det[0])
    # The basis of J(sigma-v0-type3) on each core, split into three parts.
    split = [line for line in out.splitlines() if line.startswith("  signature loop / reduced basis / to Polynomial")]
    assert len(split) == 2 and all(re.search(r"-> \d+\.\d{3}s / \d+\.\d{3}s / \d+\.\d{3}s$", line) for line in split)
