"""The sparse product kernel against the dense oracles of oracle_dense."""

import numpy as np
import pytest

from conftest import generated_text, load_built, load_generated
from oracle_dense import (check_associativity, check_identity, dense_multiply,
                          dense_skew_multiply, dense_table, left_mult_matrix,
                          loop_basic_dim, loop_glambda, right_mult_matrix)
from oracle_glambda import GLambda
from skewcover.field import PrimeField, StructureConstants, coalesce, match_pairs
from skewcover.inputfmt import build_input, parse_input
from skewcover.skew import SkewAlgebra, SkewContext, build_presentation

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
    assert np.array_equal(left_mult_matrix(sparse, x), expected)
    # y -> y*x: column j is b_j * x
    expected = np.tensordot(table, x, axes=(1, 0)).T % alg.F.p
    assert np.array_equal(right_mult_matrix(sparse, x), expected)
    assert check_associativity(sparse) and check_identity(sparse)


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


@pytest.mark.parametrize("name", BUNDLED)
def test_skew_table_is_associative_and_unital(name):
    built = load_built(name)
    T = SkewAlgebra(built.algebra, built.group, built.action).structure
    assert check_associativity(T) and check_identity(T)


def _context(name: str) -> SkewContext:
    b = load_built(name) if name.endswith(".skw") else load_generated(name)
    return SkewContext(b.algebra, b.group, b.action)


@pytest.mark.parametrize("name", BUNDLED + [
    "star3_1", "star3_2", "star3_3", "star3_4", "star2_2", "star2_3",
    "star2_4", "cover2_3", "cover2_4", "cover2_5", "cover2_6"])
def test_basic_dim_matches_loop(name):
    ctx = _context(name)
    assert ctx.basic_dim() == loop_basic_dim(ctx)


def test_basic_dim_with_a_block_of_rank_p():
    """Z2 acting trivially on the 3-Kronecker quiver over F_3: the block
    e_(1, rho) (Lambda G) e_(2, rho) has rank p = 3, so a count mod p,
    such as the trace of the idempotent map onto it, would read 0."""
    b = build_input(parse_input(
        "field p = 3\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"
        "arrow c: 1 -> 2\ngroup Z2\n"))
    ctx = SkewContext(b.algebra, b.group, b.action)
    assert ctx.basic_dim() == loop_basic_dim(ctx) == 2 * b.algebra.dim


@pytest.mark.parametrize("key, bound, expected",
                         [("star3_8", None, 63), ("cover3_20", 60, 210)])
def test_basic_dim_at_scale(key, bound, expected):
    """A scale guard: skew algebras of dimension 399 and 1,890, where two
    products per basis vector made `basic_dim` most of a `skew` run."""
    b = build_input(parse_input(generated_text(key)), length_bound=bound)
    assert SkewContext(b.algebra, b.group, b.action).basic_dim() == expected


@pytest.mark.parametrize("name", ["fig5.skw", "fig6.skw", "free_action_a3.skw"])
def test_glambda_matrices_match_loop(name):
    b = load_built(name)
    pres = build_presentation(b.algebra, b.group, b.action)
    gl, oracle = GLambda(pres), loop_glambda(pres)
    assert np.array_equal(gl.Z, oracle["Z"])
    for key in ("right_mults", "left_vertex", "left_arrow"):
        ours, theirs = getattr(gl, key), oracle[key]
        assert len(ours) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


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
    assert check_associativity(StructureConstants(F, t, np.array([1, 0])))
    assert check_identity(StructureConstants(F, t, np.array([1, 0])))
    assert not check_identity(StructureConstants(F, t, np.array([0, 1])))
    # e*1 = 2e and e*e = 1 + e: (e*1)*e = 2 + 2e but e*(1*e) = 1 + e
    bad = t.copy()
    bad[1, 0] = [0, 2]
    bad[1, 1] = [1, 1]
    assert not check_associativity(StructureConstants(F, bad, np.array([1, 0])))


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

