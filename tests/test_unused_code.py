"""No dead code in the library: every import is used by its module, and
every private module-level function is referenced somewhere in src/.

A standard-library stand-in for a linter's unused-import and dead-code
checks, over the ``ast`` of each module.  Package ``__init__.py`` files
are exempt from the import check: their imports are the public API.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ribetkit")


def _modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, SRC), ast.parse(fh.read(), path)


def _referenced_names(tree) -> set:
    """Every identifier the module reads: plain names, attribute names,
    names it imports, and names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _read_names(tree) -> set:
    """The names the module loads, outside its import statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation such as -> "FreeComplex".
            names.add(node.value)
    return names


def test_every_import_is_used():
    unused = []
    for rel, tree in _modules():
        if os.path.basename(rel) == "__init__.py":
            continue
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name) for a in node.names]
            else:
                continue
            unused += [f"{rel}: {name}" for name in bound if name not in read]
    assert not unused, unused


def test_every_private_function_is_referenced():
    modules = list(_modules())
    referenced = set()
    for _rel, tree in modules:
        referenced |= _referenced_names(tree)
    unreferenced = [
        f"{rel}: {node.name}"
        for rel, tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unreferenced, unreferenced
