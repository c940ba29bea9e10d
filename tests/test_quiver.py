import numpy as np
import pytest

from skewcover.field import PrimeField
from skewcover.quiver import (BoundAlgebra, InhomogeneousRelationError,
                              NotAdmissibleError, PathWord, Quiver,
                              RelationElement, is_gentle, is_skew_gentle,
                              make_path)

from oracle_dense import check_associativity, check_identity

F = PrimeField(1009)


def a2_quiver():
    return Quiver(["1", "2"], [("a", "1", "2")])


def test_single_vertex_dim_one():
    alg = BoundAlgebra(F, Quiver(["x"], []), [])
    assert alg.dim == 1


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Quiver(["1", "1"], [])
    with pytest.raises(ValueError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_non_composable_path_rejected():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])
    with pytest.raises(ValueError):
        make_path(q, (q.aindex["b"], q.aindex["a"]))


def test_fig5_dimension_golden(fig5):
    # brute-force path enumeration with reduction; cross-check: total
    # composition-factor count of the four projective diagrams in the AR
    # picture is 3 + 3 + 2 + 2 = 10
    assert fig5.algebra.dim == 10


def test_fig6_dimension_golden(fig6):
    # five projectives with three composition factors each
    assert fig6.algebra.dim == 15


def test_fig1_dimension(fig1):
    assert fig1.algebra.dim == 19


def test_idempotent_orthogonality(fig5):
    alg = fig5.algebra
    n = alg.quiver.n_vertices
    total = np.zeros(alg.dim, dtype=np.int64)
    for i in range(n):
        ei = alg.idempotent(i)
        total = (total + ei) % F.p
        assert np.array_equal(alg.multiply(ei, ei), ei)
        for j in range(i + 1, n):
            assert not np.any(alg.multiply(ei, alg.idempotent(j)))
    assert np.array_equal(total, alg.structure.one)


def test_relation_vanishes_in_quotient(fig5):
    alg = fig5.algebra
    q = alg.quiver
    aba = PathWord(0, (q.aindex["a"], q.aindex["b"], q.aindex["a"]))
    assert alg.nf[aba] == {}


def test_structure_constants_associative(fig5, fig1):
    assert check_associativity(fig5.algebra.structure)
    assert check_identity(fig5.algebra.structure)
    assert check_associativity(fig1.algebra.structure)


def test_normal_form_idempotent(fig5):
    # reducing a reduced path is the identity: nf of basis paths is a unit
    alg = fig5.algebra
    for k, w in enumerate(alg.basis):
        assert alg.nf[w] == {k: 1}


def test_dim_is_block_sum(fig5):
    alg = fig5.algebra
    blocks = alg.basis_by_blocks
    assert sum(len(v) for v in blocks.values()) == alg.dim
    assert alg.basis_by_blocks is blocks
    with pytest.raises(TypeError):
        blocks[(0, 0)] = ()
    assert all(isinstance(v, tuple) for v in blocks.values())


def test_length_bound_enforced():
    # a loop with no relations is not admissible within any bound
    q = Quiver(["1"], [("f", "1", "1")])
    with pytest.raises(NotAdmissibleError):
        BoundAlgebra(F, q, [], length_bound=6)


def test_inhomogeneous_relation_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("f", "1", "1")])
    ff = make_path(q, (q.aindex["f"], q.aindex["f"]))
    fp = make_path(q, (q.aindex["f"],))
    rel = RelationElement(((1, ff), (-1, fp)))
    with pytest.raises(InhomogeneousRelationError):
        BoundAlgebra(F, q, [rel])


def test_random_multiplication_associative(fig5):
    alg = fig5.algebra
    rng = np.random.RandomState(3)
    for _ in range(10):
        x, y, z = (F.mat(rng.randint(0, F.p, alg.dim)) for _ in range(3))
        lhs = alg.multiply(alg.multiply(x, y), z)
        rhs = alg.multiply(x, alg.multiply(y, z))
        assert np.array_equal(lhs, rhs)


# -- recognizers -------------------------------------------------------------

def test_linear_quiver_gentle():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    ok, viol = is_gentle(q, [])
    assert ok, viol


def test_fig1_not_gentle(fig1):
    ok, viol = is_gentle(fig1.quiver, fig1.relations)
    assert not ok
    assert any(v.clause == "monomial" for v in viol)


def test_fig6_not_gentle(fig6):
    ok, viol = is_gentle(fig6.quiver, fig6.relations)
    assert not ok
    assert any(v.clause == "length-2" for v in viol)


def test_overloaded_vertex_not_gentle():
    q = Quiver(["0", "1", "2", "3"],
               [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])
    ok, viol = is_gentle(q, [])
    assert not ok and any(v.clause == "indegree<=2" for v in viol)


def test_admissibility_clause():
    # 2-cycle with no relations: allowed compositions cycle
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    ok, viol = is_gentle(q, [])
    assert not ok and any(v.clause == "admissible" for v in viol)


def test_skew_gentle_a2_special_loop():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("f", "1", "1")])
    ff = make_path(q, (q.aindex["f"], q.aindex["f"]))
    fp = make_path(q, (q.aindex["f"],))
    rel = [RelationElement(((1, ff), (-1, fp)))]
    ok, viol = is_skew_gentle(q, rel, ["f"], p=1009)
    assert ok, viol


def test_skew_gentle_two_loops_fails():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("f", "1", "1"), ("g", "1", "1")])
    ff = make_path(q, (q.aindex["f"], q.aindex["f"]))
    fp = make_path(q, (q.aindex["f"],))
    rel = [RelationElement(((1, ff), (-1, fp)))]
    ok, viol = is_skew_gentle(q, rel, ["f"], p=1009)
    assert not ok and any(v.clause == "no-other-loop" for v in viol)


def test_gentle_with_empty_special_is_skew_gentle():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    ok, viol = is_skew_gentle(q, [], [], p=1009)
    assert ok, viol


def test_special_loop_needs_idempotent_relation():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("f", "1", "1")])
    ok, viol = is_skew_gentle(q, [], ["f"], p=1009)
    assert not ok
    assert any(v.clause == "special-loop-has-idempotent-relation" for v in viol)
