"""The sparse product kernel against the dense oracles of oracle_dense."""

import numpy as np
import pytest

from conftest import load_built
from oracle_dense import dense_multiply, dense_skew_multiply, dense_table
from skewcover.field import PrimeField, StructureConstants, coalesce, match_pairs
from skewcover.skew import SkewAlgebra

BUNDLED = ["fig1.skw", "fig2.skw", "fig5.skw", "fig6.skw",
           "free_action_a3.skw", "kronecker_z3.skw"]


def _random_vectors(F, dim, seed, count=12, density=0.4):
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(count):
        v = rng.integers(0, F.p, size=dim)
        v[rng.random(dim) > density] = 0
        vecs.append(v.astype(np.int64))
    return vecs


@pytest.mark.parametrize("name", BUNDLED)
def test_bound_algebra_multiply_matches_dense(name):
    alg = load_built(name).algebra
    F, n = alg.F, alg.dim
    table = dense_table(alg)
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(alg.multiply(eye[i], eye[j]), table[i, j])
    for x, y in zip(_random_vectors(F, n, 1), _random_vectors(F, n, 2)):
        assert np.array_equal(alg.multiply(x, y), dense_multiply(F, table, x, y))
    # unreduced and negative inputs reduce like the dense path
    x, y = _random_vectors(F, n, 3, count=2)
    x = x - 3 * F.p
    assert np.array_equal(alg.multiply(x, y), dense_multiply(F, table, x, y))


@pytest.mark.parametrize("name", BUNDLED)
def test_structure_constants_match_dense_table(name):
    alg = load_built(name).algebra
    table = dense_table(alg)
    dense = StructureConstants(alg.F, table, alg.structure.one)
    sparse = alg.structure
    for a, b in zip((dense.I, dense.J, dense.K, dense.C),
                    (sparse.I, sparse.J, sparse.K, sparse.C)):
        assert np.array_equal(np.sort(a), np.sort(b))
    x = _random_vectors(alg.F, alg.dim, 4, count=1)[0]
    expected = np.tensordot(x, table, axes=(0, 0)).T % alg.F.p
    assert np.array_equal(sparse.left_mult_matrix(x), expected)
    assert sparse.check_associativity() and sparse.check_identity()


@pytest.mark.parametrize("name", BUNDLED)
def test_skew_multiply_matches_dense(name):
    built = load_built(name)
    S = SkewAlgebra(built.algebra, built.group, built.action)
    table = dense_table(built.algebra)
    F = S.F
    xs = _random_vectors(F, S.dim, 5, count=6, density=0.2)
    ys = _random_vectors(F, S.dim, 6, count=6, density=0.2)
    for x, y in zip(xs, ys):
        assert np.array_equal(S.multiply(x, y), dense_skew_multiply(S, table, x, y))
    # basis elements, including products that vanish
    eye = np.eye(S.dim, dtype=np.int64)
    for i in range(0, S.dim, 3):
        for j in range(0, S.dim, 2):
            assert np.array_equal(S.multiply(eye[i], eye[j]),
                                  dense_skew_multiply(S, table, eye[i], eye[j]))


def test_presentation_algebra_multiply_matches_dense(fig5_pres):
    alg = fig5_pres.algebra
    table = dense_table(alg)
    for x, y in zip(_random_vectors(alg.F, alg.dim, 7),
                    _random_vectors(alg.F, alg.dim, 8)):
        assert np.array_equal(alg.multiply(x, y), dense_multiply(alg.F, table, x, y))


def test_sparse_checks_detect_broken_tables():
    F = PrimeField(7)
    # dual numbers K[e]/(e^2), basis (1, e)
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0] = [1, 0]
    t[0, 1] = [0, 1]
    t[1, 0] = [0, 1]
    assert StructureConstants(F, t, np.array([1, 0])).check_associativity()
    assert StructureConstants(F, t, np.array([1, 0])).check_identity()
    assert not StructureConstants(F, t, np.array([0, 1])).check_identity()
    # e*1 = 2e and e*e = 1 + e: (e*1)*e = 2 + 2e but e*(1*e) = 1 + e
    bad = t.copy()
    bad[1, 0] = [0, 2]
    bad[1, 1] = [1, 1]
    assert not StructureConstants(F, bad, np.array([1, 0])).check_associativity()


def test_empty_algebra_product():
    F = PrimeField(5)
    A = StructureConstants(F, np.zeros((2, 2, 2), dtype=np.int64), np.zeros(2))
    assert A.I.size == 0
    assert np.array_equal(A.multiply(np.array([1, 2]), np.array([3, 4])), [0, 0])


def test_match_pairs_and_coalesce():
    a = np.array([3, 1, 3, 7])
    b = np.array([3, 3, 1, 5])
    ia, ib = match_pairs(a, b)
    assert list(zip(ia.tolist(), ib.tolist())) == [
        (i, j) for i in range(4) for j in range(4) if a[i] == b[j]]
    F = PrimeField(5)
    keys, vals = coalesce(F, np.array([4, 2, 4, 9, 2]), np.array([3, 1, 2, 6, 5]))
    assert keys.tolist() == [2, 9] and vals.tolist() == [1, 1]

