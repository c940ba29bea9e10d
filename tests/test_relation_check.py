"""The relation check from shared suffix products, against the dense one.

`Representation.relation_defects` reads every term off arrow-suffix
products built once per module, skips relations with a zero end space and
stops a path at a zero suffix; `oracle_dense.dense_relation_defects`
rebuilds each term's path matrix.  Both must list the same violated
relations on every declared module and its pushdown, and on every knitted
module, over Lambda and over Lambda G, and on a copy of each with one map
entry bumped; that copy must be refused with the message the dense check
implies.  fig1's binomial relations, and the two that its Lambda G
computes, are where terms are summed.
"""

from functools import cache
import re

import pytest

from conftest import load_built, load_generated
from oracle_dense import dense_relation_defects
from skewcover.ar import knit_ar_quiver
from skewcover.field import PrimeField
from skewcover.pushdown import pushdown_module
from skewcover.quiver import path_source, path_target
from skewcover.rep import Representation
from skewcover.skew import build_presentation

DECLARED = ["fig1.skw", "fig5.skw", "kronecker_z3.skw"]
KNITTED = ["fig5", "fig6", "free_action_a3", "star3_1"]


@cache
def _knitted(name: str, skew: bool):
    b = load_generated(name) if name.startswith("star") else load_built(f"{name}.skw")
    alg = (build_presentation(b.algebra, b.group, b.action).algebra
           if skew else b.algebra)
    return knit_ar_quiver(alg).modules


def _unchecked(M: Representation, maps) -> Representation:
    """M's algebra and dims with `maps`, built without the check."""
    R = object.__new__(Representation)
    R.algebra, R.F, R.dims, R.maps = M.algebra, M.F, M.dims, tuple(maps)
    return R


def _bumped(M: Representation):
    """M's maps with entry [0, 0] raised by one in the first nonempty map
    of an arrow that some relation names (any nonempty map if none does)."""
    named = {a for r in M.algebra.relations for _, w in r.terms for a in w.arrows}
    nonempty = [a for a, m in enumerate(M.maps) if m.size]
    if not nonempty:
        return None
    a = next((a for a in nonempty if a in named), nonempty[0])
    maps = [m.copy() for m in M.maps]
    maps[a][0, 0] = (maps[a][0, 0] + 1) % M.F.p
    return maps


def _assert_same_check(modules) -> int:
    """Compare both checks on each module and its bumped copy; the number
    of bumped copies refused."""
    refused = 0
    for M in modules:
        assert M.relation_defects() == dense_relation_defects(M) == []
        maps = _bumped(M)
        if maps is None:
            continue
        expected = dense_relation_defects(_unchecked(M, maps))
        assert _unchecked(M, maps).relation_defects() == expected
        if expected:
            refused += 1
            with pytest.raises(ValueError, match=re.escape(
                    f"relations violated: {expected}")):
                Representation(M.algebra, M.dims, maps)
        else:
            Representation(M.algebra, M.dims, maps)
    return refused


@pytest.mark.parametrize("name", DECLARED)
def test_declared_modules_match_dense_check(name):
    """The declared modules over Lambda and their pushdowns over Lambda G."""
    built = load_built(name)
    pres = build_presentation(built.algebra, built.group, built.action)
    modules = list(built.modules.values())
    assert modules
    _assert_same_check(modules + [pushdown_module(pres, M).rep for M in modules])


@pytest.mark.parametrize("skew", [False, True], ids=["base", "skew"])
@pytest.mark.parametrize("name", KNITTED)
def test_knitted_modules_match_dense_check(name, skew):
    modules = _knitted(name, skew)
    refused = _assert_same_check(modules)
    assert (refused > 0) == bool(modules[0].algebra.relations)


def test_multi_term_relations_are_covered():
    """fig1 declares binomial relations, and its Lambda G computes two;
    fig1's module and its pushdown are nonzero at both ends of some."""
    fig1 = load_built("fig1.skw")
    pres = build_presentation(fig1.algebra, fig1.group, fig1.action)
    for M in (fig1.modules["M_fig3"], pushdown_module(pres, fig1.modules["M_fig3"]).rep):
        q, binomial = M.algebra.quiver, [
            r for r in M.algebra.relations if len(r.terms) > 1]
        assert any(M.dims[path_source(q, r.terms[0][1])]
                   and M.dims[path_target(q, r.terms[0][1])] for r in binomial)


def test_zero_maps_multiply_nothing(monkeypatch):
    """fig5 with a zero-map S2 of dims 1500/1500: every suffix is zero, so
    the check multiplies no matrix (the dense check took 18.6 s here)."""
    fig5 = load_built("fig5.skw")
    calls = []
    mul = PrimeField.mul
    monkeypatch.setattr(PrimeField, "mul",
                        lambda self, a, b: calls.append(a.shape) or mul(self, a, b))
    M = Representation(fig5.algebra, [1500, 1500, 0, 0], [])
    assert M.relation_defects() == [] and calls == []
