"""Every function and class the package defines is referenced by name.

A definition counts as used when some module of `src`, `tests`, `demos`
or `bench` names it: as a variable (`twist(...)`) or as an attribute
(`alg.multiply(...)`).  Imports and `__all__`-style re-exports do not
count, so a name kept alive only by the package's `__init__` is reported.
Dunder methods are called implicitly and are skipped.
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


def unreferenced_definitions() -> list[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
                  and path.is_relative_to(SRC)
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name,
                                   f"{path.name}:{node.lineno} {node.name}")
    return sorted(where for name, where in defined.items() if name not in used)


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
