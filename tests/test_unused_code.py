"""No dead code in the library: every import is used by its module,
every private module-level function is referenced somewhere in src/, and
every public function, class and method is used by the library, the
scripts or the benchmark, or is kept on purpose for a stated reason.

A standard-library stand-in for a linter's unused-import and dead-code
checks, over the ``ast`` of each module.  Package ``__init__.py`` files
are exempt from the import check: their imports are the public API.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ribetkit")

# Public names that nothing in src/, scripts/ or perfbench/ calls, each
# with the reason it stays.
KEPT_PUBLIC = {
    "mono_mul": "reference product the packed-monomial tests compare against",
    "mono_divides": "reference divisibility the packed-monomial tests compare against",
    "mono_deg": "reference degree the packed-monomial tests compare against",
    "rref": "reference elimination the reduce_system test compares against",
    "from_text": "inverse of to_text; the text round-trip tests use it",
    "Polynomial.total_degree": "degree query the tests use as API",
    "Polynomial.terms": "the terms keyed by exponent tuples, the tests' way to read a polynomial",
    "GroebnerBasis.verify": "the tests' re-check of a basis: S-pairs and source generators reduce to 0",
    "Mat2.scalar": "scalar matrix the Cayley-Hamilton tests build",
    "FreeComplex.twists": "twist bookkeeping the complex tests read",
    "subcomplex": "the README documents subcomplexes of a free complex",
    "RibetShape.to_config_text": "inverse of the shape-file parser; the round-trip tests use it",
    "SpecializedInstance.to_record": "the replay pin hashes it",
    "build_A_generators": "the generators of the ideal A, for the l:e0 check (ROADMAP item 5)",
}


def _modules(top=SRC):
    for root, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, top), ast.parse(fh.read(), path)


def _referenced_names(tree) -> tuple[set, set]:
    """Every identifier the module reads: plain names, attribute names,
    names it imports, and names inside string constants, dotted ones
    such as "Polynomial.evaluate" part by part.  Also, apart, the names
    that can name a method: the attribute names and the parts of dotted
    strings, the form the tracer names a method by.  An undotted string
    such as prog="verify" names no method."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                (attributes if len(parts) > 1 else names).update(parts)
    return names | attributes, attributes


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
        referenced |= _referenced_names(tree)[0]
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


def _public_definitions(tree):
    """(qualified name, bare name, whether a method) of each public
    module-level function and class, and of each public method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, True


def test_every_public_name_is_used():
    # A method counts as used only where an attribute or a string names
    # it: a local variable that shares its name does not use it.
    referenced, attributes = set(), set()
    for top in (SRC, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench")):
        for rel, tree in _modules(top):
            if os.path.basename(rel) != "__init__.py":
                names, attrs = _referenced_names(tree)
                referenced |= names
                attributes |= attrs
    defined = [
        (rel, qualified, bare, attributes if method else referenced)
        for rel, tree in _modules()
        for qualified, bare, method in _public_definitions(tree)
    ]
    unused = [
        f"{rel}: {qualified}"
        for rel, qualified, bare, used in defined
        if bare not in used and qualified not in KEPT_PUBLIC
    ]
    assert not unused, unused
    stale = sorted(set(KEPT_PUBLIC) - {qualified for _rel, qualified, bare, used in defined if bare not in used})
    assert not stale, f"KEPT_PUBLIC names that are gone or now used: {stale}"
