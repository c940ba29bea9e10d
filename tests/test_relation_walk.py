"""Q_G's bound algebra from one degree walk, against the two-pass oracle.

`SkewPresentation` hands its kernel computation to `BoundAlgebra.generated`
as a relation source; the oracle finds the relations in a walk of its own
and rebuilds the ideal in a second one.  Both must give the same relations,
basis, normal forms and product table.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import generated_text, load_built, load_generated
from oracle_dense import two_pass_presentation
from skewcover.field import PrimeField
from skewcover.inputfmt import build_input, parse_input
from skewcover.quiver import (BoundAlgebra, NotAdmissibleError, Quiver,
                              RelationElement, make_path)
from skewcover.skew import SkewContext, SkewPresentation, build_presentation

BUNDLED = ["fig1.skw", "fig2.skw", "fig5.skw", "fig6.skw",
           "free_action_a3.skw", "kronecker_z3.skw"]
GENERATED = ["star3_1", "star3_2", "star3_3", "star3_4", "star2_2",
             "star2_3", "star2_4", "cover2_3", "cover2_4", "cover2_5",
             "cover2_6", "cover3_3", "cover3_4"]


def _assert_same_as_two_pass(built):
    pres = build_presentation(built.algebra, built.group, built.action)
    old = two_pass_presentation(pres)
    assert pres.relation_gens == old.relation_gens
    assert pres.basic_dim == old.basic_dim
    new_alg, old_alg = pres.algebra, old.algebra
    assert new_alg.basis == old_alg.basis
    assert new_alg.nf == old_alg.nf
    for name in "IJKC":
        assert np.array_equal(getattr(new_alg.structure, name),
                              getattr(old_alg.structure, name)), name


@pytest.mark.parametrize("name", BUNDLED)
def test_one_walk_matches_two_pass_bundled(name):
    _assert_same_as_two_pass(load_built(name))


@pytest.mark.parametrize("key", GENERATED)
def test_one_walk_matches_two_pass_generated(key):
    _assert_same_as_two_pass(load_generated(key))


@pytest.mark.parametrize("name,bound", [("fig5.skw", 2), ("fig1.skw", 3)])
def test_presentation_refused_below_its_degree(name, bound):
    built = load_built(name)
    with pytest.raises(NotAdmissibleError):
        build_presentation(built.algebra, built.group, built.action,
                           length_bound=bound)


def test_presentation_at_scale_stays_small():
    """A scale guard: the skew algebra of cover3_20 has dimension 1,260,
    and building its presentation once held 66 MiB in dense action
    matrices and full-table products."""
    b = build_input(parse_input(generated_text("cover3_20")), length_bound=40)
    tracemalloc.start()
    try:
        pres = build_presentation(b.algebra, b.group, b.action, length_bound=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    old = two_pass_presentation(pres)
    assert pres.relation_gens == old.relation_gens
    assert pres.basic_dim == old.basic_dim == 210


@pytest.mark.parametrize("bound", [0, -3])
def test_bound_below_one_refused_up_front(fig5, bound):
    with pytest.raises(ValueError, match=f"length bound {bound} is below 1"):
        BoundAlgebra(fig5.algebra.F, fig5.quiver, fig5.algebra.relations, bound)
    ctx = SkewContext(fig5.algebra, fig5.group, fig5.action)
    with pytest.raises(ValueError, match=f"length bound {bound} is below 1"):
        SkewPresentation(ctx, length_bound=bound)


@pytest.mark.parametrize("name,bound", [("fig5.skw", 3), ("kronecker_z3.skw", 2)])
def test_presentation_accepted_at_its_degree(name, bound):
    built = load_built(name)
    pres = build_presentation(built.algebra, built.group, built.action,
                              length_bound=bound)
    assert pres.algebra.dim == pres.basic_dim


def test_generated_source_sees_each_degree_once():
    # A_3 with b.a = 0 given through a source: the source is asked at
    # degrees 1 and 2, and the result is the algebra of the same relation
    F = PrimeField(1009)
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rel = RelationElement(((1, make_path(q, (q.aindex["b"], q.aindex["a"]))),))
    seen = []

    def source(paths, closure):
        seen.append((paths[0].length(), len(paths), closure.shape))
        return [rel] if paths[0].length() == 2 else []

    alg = BoundAlgebra.generated(F, q, source)
    assert seen == [(1, 2, (0, 2)), (2, 1, (0, 1))]
    assert alg.relations == [rel]
    ref = BoundAlgebra(F, q, [rel])
    assert alg.basis == ref.basis and alg.nf == ref.nf
