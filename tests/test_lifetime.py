"""Algebras are freed by reference counting alone: knitting keeps no
self-referencing closure, and a module table holds arrays and structure
constants only, never a module that points back at its algebra.  With the
cyclic collector off, every algebra a command builds is dead once the
command returns."""

import gc
import importlib.resources as resources
import weakref

import pytest

from skewcover import cli
from skewcover.ar import knit_ar_quiver
from skewcover.quiver import BoundAlgebra
from skewcover.rep import Representation, module_table

COMMANDS = (["rank"], ["transport-ars"],
            ["verify-covering", "--all-indecomposables"], ["ar-quiver"])


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_command_frees_every_algebra(command, capsys, monkeypatch):
    built = []
    build = BoundAlgebra._build

    def tracked(self, *args):
        built.append(weakref.ref(self))
        return build(self, *args)

    monkeypatch.setattr(BoundAlgebra, "_build", tracked)
    gc.collect()
    gc.disable()
    try:
        path = resources.files("skewcover").joinpath("data/free_action_a3.skw")
        code = cli.main([command[0], str(path), *command[1:]])
        alive = [ref for ref in built if ref() is not None]
    finally:
        gc.enable()
    assert code == 0, capsys.readouterr().err
    assert built and alive == []


def _representations_in(root) -> list:
    """The Representations reachable from `root` through containers and the
    attributes of package objects."""
    seen, stack, found = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Representation):
            found.append(x)
        elif isinstance(x, dict):
            stack.extend([*x.keys(), *x.values()])
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        elif type(x).__module__.startswith("skewcover."):
            stack.append(vars(x))
    return found


def test_module_tables_hold_no_modules(fig6, fig5_pres):
    for alg in (fig6.algebra, fig5_pres.algebra):
        knit_ar_quiver(alg)
        assert len(module_table(alg)) > 0
        assert _representations_in(module_table(alg)) == []
