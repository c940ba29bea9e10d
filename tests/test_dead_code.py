"""Every function and class the package defines is referenced by name.

A definition counts as used when some module of `src`, `tests`, `demos`
or `bench` names it: as a variable (`twist(...)`) or as an attribute
(`alg.multiply(...)`).  A method counts as used only through an
attribute, so a local variable that shares its name does not hide it.
Imports and `__all__`-style re-exports do not count, so a name kept alive
only by the package's `__init__` is reported.  Dunder methods are called
implicitly and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skewcover"
SCANNED = [SRC, ROOT / "tests", ROOT / "demos", ROOT / "bench"]


def _trees():
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def unreferenced_definitions() -> list[str]:
    defined: dict[str, str] = {}
    non_methods: set[str] = set()   # names defined at least once outside a class body
    names: set[str] = set()
    attrs: set[str] = set()
    for path, tree in _trees():
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for n in c.body if isinstance(n, FUNCTIONS)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, DEFINITIONS)
                  and path.is_relative_to(SRC)
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name,
                                   f"{path.name}:{node.lineno} {node.name}")
                if id(node) not in methods:
                    non_methods.add(node.name)
    used = attrs | (names & non_methods)
    return sorted(where for name, where in defined.items() if name not in used)


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
