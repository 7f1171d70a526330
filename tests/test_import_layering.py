"""The import layering: the layers that only build ideals, matrices and
specializations load without the Groebner engine, and the engine's input
types are the same objects under both module names.

``algebra`` holds ``IdealSpec``, ``FreeModuleMatrix`` and ``Budget``;
``groebner`` re-exports them.  ``genmat``, ``borel`` and ``ribet`` import
the engine only inside the three checks that call it.
"""

import ast
import json
import os
import subprocess
import sys

import ribetkit.algebra as algebra
import ribetkit.groebner as groebner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ribetkit")

ENGINE = ("groebner", "reducers")
ENGINE_FREE = ("exactpoly.py", "linalg.py", "genmat.py", "borel.py", "algebra.py", "ribet")

# A GF(10007) specialization of spec-r4 and its perturbed control, in a
# fresh interpreter: which of the engine's modules did it load?
_SPECIALIZE = """
import json, sys
import ribetkit.ribet as ribet
inst = ribet.generate_specialization(ribet.shape_specialization(), 0, 10007)
checks = ribet.check_specialized(inst)
control = ribet.check_specialized(ribet.perturb_alpha(inst))
loaded = [m for m in ("ribetkit.groebner", "ribetkit.reducers") if m in sys.modules]
print(json.dumps([checks.all_pass(), control.detEprime_zero, loaded]))
"""


def test_a_specialization_and_its_control_leave_the_engine_unloaded():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, "-c", _SPECIALIZE], env=env, capture_output=True, text=True, check=True)
    passed, control_holds, loaded = json.loads(out.stdout)
    assert passed and not control_holds
    assert loaded == []


def _module_level_imports(tree):
    """The import statements a module runs when it is loaded: all but
    those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node) -> list[str]:
    """The last dotted part of each module the statement imports, with
    ``from . import groebner`` read as importing ``groebner``."""
    if isinstance(node, ast.Import):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if node.module and node.module.rsplit(".", 1)[-1] != "ribetkit":
        return [node.module.rsplit(".", 1)[-1]]
    return [alias.name for alias in node.names]


def test_no_engine_free_module_imports_the_engine_when_it_loads():
    offending = []
    for name in ENGINE_FREE:
        top = os.path.join(SRC, name)
        paths = [top] if name.endswith(".py") else [
            os.path.join(top, f) for f in sorted(os.listdir(top)) if f.endswith(".py")]
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            offending += [
                f"{os.path.relpath(path, SRC)}:{node.lineno}"
                for node in _module_level_imports(tree)
                if set(_imported_modules(node)) & set(ENGINE)
            ]
    assert not offending, offending


def test_the_layering_check_sees_each_form_of_an_engine_import():
    forms = ("from ..groebner import in_ideal", "from .reducers import Reducers", "from . import groebner",
             "import ribetkit.groebner", "if True:\n    from ribetkit.groebner import buchberger")
    for text in forms:
        nodes = list(_module_level_imports(ast.parse(text)))
        assert set(_imported_modules(nodes[0])) & set(ENGINE), text
    nested = ast.parse("def f():\n    from ..groebner import in_ideal\n")
    assert not list(_module_level_imports(nested))


def test_groebner_reexports_the_input_types_as_the_same_objects():
    for name in ("Budget", "DEFAULT_BUDGET", "IdealSpec", "FreeModuleMatrix", "_Counter"):
        assert getattr(groebner, name) is getattr(algebra, name), name
    assert type(groebner.DEFAULT_BUDGET.fresh_counter()) is algebra._Counter
