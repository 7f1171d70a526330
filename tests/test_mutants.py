"""scripts/mutants.py: every mutant's old text still occurs exactly once
in its file, so a mutant cannot silently stop applying, and its killer
names a test function of an existing test file, so a renamed test cannot
silently empty the list.  Both are read, not run."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_script().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_killer_names_a_defined_test_function(mutant):
    path, _, name = mutant.killer.partition("::")
    assert (ROOT / path).is_file(), mutant.killer
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert name.startswith("test_") and name in defined, mutant.killer
