"""Every package definition is reached from what runs the package.

The roots are the whole of `cli.py`, the module-level code of every
package module (class bodies included, function bodies not), every file
of `demos/`, the non-test files of `bench/`, and the functions that
`bench/tracer.py` wraps by name (its `TARGETS`).  From the roots the scan
follows name and attribute references through the bodies of the
definitions they reach: a name reaches the module-level functions and
classes of that name, an attribute reaches those and every method of
that name, as in `test_dead_code.py`.  A reached class reaches its dunder
methods, which Python calls implicitly.

The matching is by name only, so it is approximate: an attribute such as
`x.apply` reaches every `apply` method whatever the type of `x`.  It can
keep a definition alive that nothing calls, but it does not report one
that something in the roots calls by name.  Code that only tests reach
belongs in `tests/`, next to the checks that use it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skewcover"
BENCH = ROOT / "bench"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(nodes) -> tuple[set[str], set[str]]:
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _module_level(tree: ast.Module) -> list[ast.AST]:
    """What runs at import: every statement but function bodies."""
    out = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            out += node.decorator_list + node.args.defaults + node.args.kw_defaults
        elif isinstance(node, ast.ClassDef):
            out += node.decorator_list + node.bases + node.keywords
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    out += item.decorator_list
                else:
                    out.append(item)
        else:
            out.append(node)
    return [n for n in out if n is not None]


def _tracer_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, qualname) for targets in tracer.TARGETS.values()
            for module, qualname in targets]


def unreached_definitions() -> list[str]:
    # definitions: module-level functions and classes, and methods
    functions: dict[str, list] = {}   # name -> [(where, node)], not methods
    methods: dict[str, list] = {}     # name -> [(where, node)]
    dunders: dict[int, list] = {}     # id(class node) -> its dunder methods
    qualified: dict[tuple[str, str], ast.AST] = {}
    roots: list[ast.AST] = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        if path.name == "cli.py":
            roots.append(tree)
        else:
            roots += _module_level(tree)
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            where = f"{path.stem}.{node.name}"
            functions.setdefault(node.name, []).append((where, node))
            qualified[path.stem, node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, FUNCTIONS):
                        continue
                    qualified[path.stem, f"{node.name}.{item.name}"] = item
                    if item.name.startswith("__") and item.name.endswith("__"):
                        dunders.setdefault(id(node), []).append(item)
                    else:
                        methods.setdefault(item.name, []).append(
                            (f"{where}.{item.name}", item))
    for path in sorted((ROOT / "demos").glob("*.py")):
        roots.append(_parse(path))
    for path in sorted(BENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            roots.append(_parse(path))
    traced = [qualified[target] for target in _tracer_targets()]

    reached: set[int] = set()
    seen_names: set[str] = set()
    seen_attrs: set[str] = set()
    pending = list(traced)
    frontier = roots
    while frontier or pending:
        names, attrs = _references(frontier)
        names -= seen_names
        attrs -= seen_attrs
        seen_names |= names
        seen_attrs |= attrs
        for name in names | attrs:
            pending += [node for _, node in functions.get(name, ())]
        for attr in attrs:
            pending += [node for _, node in methods.get(attr, ())]
        frontier = []
        while pending:
            node = pending.pop()
            if id(node) in reached:
                continue
            reached.add(id(node))
            if isinstance(node, ast.ClassDef):
                # its body outside methods is module-level code, a root
                pending += dunders.get(id(node), [])
            else:
                frontier.append(node)
    everything = [entry for table in (functions, methods) for entries in table.values()
                  for entry in entries]
    return sorted(where for where, node in everything if id(node) not in reached)


def test_every_definition_is_reached():
    assert unreached_definitions() == []
