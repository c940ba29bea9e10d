"""The sparse Hom solve and the End algebras built on it.

`rep._solve_hom` builds the commuting-square system as sparse rows and
checks its basis with one stacked product per arrow; `oracle_dense.solve_hom`
is the dense solver it replaced.  Both must return the same blocks on every
ordered pair of knitted indecomposables, and a wrong kernel result or a
wrong End basis must still be caught.

A Hom space holds its basis as one read-only array of morphism vectors
and the per-vertex stacks cut from it; on the same pairs the arrays must
agree with the basis morphisms, and the layout helpers built on them
(`combine`, `_totals` and `_matrix_to_morphism`, `PrimeField.block_diag`)
with the loops they replaced.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracle_dense as oracle
from conftest import load_built, load_generated
from skewcover import ar, field, rep
from skewcover.ar import CapExceededError, knit_ar_quiver, simple_module
from skewcover.field import PrimeField, StructureConstants, algebra_radical
from skewcover.quiver import BoundAlgebra, Quiver, RelationElement, make_path
from skewcover.skew import build_presentation

from oracle_krull_schmidt import _total_matrix

F = PrimeField(1009)

# The bundled representation-finite inputs and the generated inputs of the
# benchmark's module workload.
FINITE = ("fig5.skw", "fig6.skw", "free_action_a3.skw", "star3_1", "cover2_4")


def _same_bases(mods):
    for M in mods:
        for N in mods:
            vectors, _ = rep._solve_hom(M, N)
            got = [[s[e] for s in rep._cut(vectors, M.dims, N.dims)]
                   for e in range(len(vectors))]
            want = oracle.solve_hom(M, N)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert all(np.array_equal(x, y) and x.shape == y.shape
                           for x, y in zip(g, w))


@pytest.mark.parametrize("side", ["algebra", "skew"])
@pytest.mark.parametrize("name", FINITE)
def test_hom_bases_match_the_dense_solver(name, side):
    built = load_built(name) if name.endswith(".skw") else load_generated(name)
    alg = built.algebra
    if side == "skew":
        alg = build_presentation(alg, built.group, built.action).algebra
    _same_bases(knit_ar_quiver(alg).modules)


@lru_cache(maxsize=None)
def _knitted(name, side):
    """(algebra, knitted modules, every (algebra, summands) the knit handed
    to `ar._sum_module`), built once per input and side."""
    built = load_built(name) if name.endswith(".skw") else load_generated(name)
    alg = built.algebra
    if side == "skew":
        alg = build_presentation(alg, built.group, built.action).algebra
    sums, real = [], ar._sum_module
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ar, "_sum_module",
                   lambda a, reps: sums.append((a, list(reps))) or real(a, reps))
        modules = knit_ar_quiver(alg).modules
    return alg, modules, sums


@pytest.mark.parametrize("side", ["algebra", "skew"])
@pytest.mark.parametrize("name", FINITE)
def test_hom_space_arrays_are_its_basis(name, side):
    _, mods, _ = _knitted(name, side)
    for M in mods:
        for N in mods:
            H = rep.hom_basis(M, N)
            assert H.vectors.shape == (H.dimension, rep._pair_len(M, N))
            assert len(H.stacks) == len(M.dims)
            assert not H.vectors.flags.writeable
            assert not any(s.flags.writeable for s in H.stacks)
            for e, f in enumerate(H.basis):
                assert np.array_equal(H.vectors[e], f.to_vector())
                assert all(np.array_equal(s[e], b) and s[e].shape == b.shape
                           for s, b in zip(H.stacks, f.blocks))


@pytest.mark.parametrize("side", ["algebra", "skew"])
@pytest.mark.parametrize("name", FINITE)
def test_combine_matches_the_loop(name, side):
    _, mods, _ = _knitted(name, side)
    rng = np.random.default_rng(0)
    empty = 0
    for M in mods:
        for N in mods:
            H = rep.hom_basis(M, N)
            empty += H.dimension == 0
            c = rng.integers(-M.F.p, 2 * M.F.p, size=H.dimension)
            got, want = rep.combine(H, c), oracle.loop_combine(H, c)
            assert got.source is M and got.target is N
            assert all(np.array_equal(x, y) and x.shape == y.shape
                       for x, y in zip(got.blocks, want.blocks))
    assert empty


@pytest.mark.parametrize("side", ["algebra", "skew"])
@pytest.mark.parametrize("name", FINITE)
def test_end_totals_read_back_to_their_basis(name, side):
    _, mods, _ = _knitted(name, side)
    for M in mods:
        H = rep.hom_basis(M, M)
        totals = rep._totals(M, M, H.vectors)
        assert len(totals) == H.dimension
        for f, total in zip(H.basis, totals):
            assert np.array_equal(total, _total_matrix(f))
            back = rep._matrix_to_morphism(M, total)
            assert all(np.array_equal(x, y) and x.shape == y.shape
                       for x, y in zip(back.blocks, f.blocks))


@pytest.mark.parametrize("side", ["algebra", "skew"])
@pytest.mark.parametrize("name", FINITE)
def test_block_diag_matches_the_summing_loop(name, side):
    alg, _, sums = _knitted(name, side)
    assert sums
    for a, reps in sums:
        assert a is alg
        got, want = ar._sum_module(alg, reps), oracle.loop_sum_module(alg, reps)
        assert got.dims == want.dims
        assert all(np.array_equal(x, y) and x.shape == y.shape
                   for x, y in zip(got.maps, want.maps))


def test_hom_bases_match_on_the_capped_kronecker_knit(monkeypatch):
    """Every module the knit keeps before it refuses at cap 14."""
    kept = []

    class Recording(rep.IsoClasses):
        def append(self, M):
            kept.append(M)
            return super().append(M)

    monkeypatch.setattr(ar, "IsoClasses", Recording)
    alg = load_built("kronecker_z3.skw").algebra
    with pytest.raises(CapExceededError):
        knit_ar_quiver(alg, max_dimension=14)
    assert len(kept) > 10
    _same_bases(kept)


def test_a_wrong_kernel_result_fails_the_commuting_squares(fig5, monkeypatch):
    P = ar.projective_module(fig5.algebra, 0)
    Q, _ = rep._solve_hom(P, P)
    assert len(Q)
    good = Q[0]
    # the first unit change that breaks a square, as the dense check sees it
    for c in range(good.size):
        bad = good.copy()
        bad[c] = (bad[c] + 1) % F.p
        if not rep.morphism_from_vector(P, P, bad).is_valid():
            break
    else:
        pytest.fail("no corruption breaks a commuting square")
    monkeypatch.setattr(rep, "sparse_nullspace_basis",
                        lambda *args: bad.reshape(1, -1))
    with pytest.raises(AssertionError,
                       match="hom basis element fails commuting squares"):
        rep._solve_hom(P, P)


def _a2():
    return BoundAlgebra(F, Quiver(["1", "2"], [("a", "1", "2")]), [])


def _plant_end_basis(M, bases):
    """Plant an End basis, given as per-vertex block lists, in the module
    table in the form `_solve_hom` returns: (vectors, stacks)."""
    vectors = np.stack([np.concatenate([b.reshape(-1) for b in blocks])
                        for blocks in bases])
    key = rep.ModuleTable.key(M)
    rep.module_table(M.algebra)._entries[("hom", key, key)] = (
        vectors, tuple(rep._cut(vectors, M.dims, M.dims)))


def test_a_brick_has_the_field_as_end_algebra():
    alg = _a2()
    P1 = rep.Representation(alg, (1, 1), [F.mat([[1]])])
    for M in (P1, simple_module(alg, 0)):
        E, H = rep.end_algebra(M)
        assert E.dim == 1 and H.dimension == 1
        assert np.array_equal(E.one, [1])
        assert np.array_equal(E.multiply(E.one, E.one), [1])
        assert rep.end_radical(M).shape == (0, 1)
        assert rep.is_indecomposable(M)


def test_a_tampered_brick_end_basis_is_refused():
    """A one-element End basis that is not the identity, planted in the
    module table, raises as the general End construction does."""
    alg = _a2()
    M = rep.Representation(alg, (1, 1), [F.mat([[1]])])
    not_one = [[np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)]]
    _plant_end_basis(M, not_one)
    with pytest.raises(AssertionError, match="identity not in End"):
        rep.end_algebra(M)


@pytest.mark.parametrize("powers,message", [
    ((1, 2), "identity not in End"),
    ((0, 1), "End.M. not closed under composition"),
])
def test_a_tampered_end_basis_names_what_fails(powers, message):
    """A planted End basis of powers of x on F_p[x]/(x^3): {x, x^2} is
    closed but misses the identity, {1, x} holds it but not x^2."""
    q = Quiver(["1"], [("x", "1", "1")])
    alg = BoundAlgebra(F, q, [RelationElement(((1, make_path(q, (0, 0, 0))),))])
    x = np.eye(3, k=-1, dtype=np.int64)
    M = rep.Representation(alg, (3,), [x])
    _plant_end_basis(M, [[np.linalg.matrix_power(x, k)] for k in powers])
    with pytest.raises(AssertionError, match=message):
        rep.end_algebra(M)


def _upper_triangular(n: int) -> StructureConstants:
    """Upper triangular n x n matrices, basis E_ij (i <= j), dimension
    n(n+1)/2 and radical of dimension n(n-1)/2."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    at = {c: k for k, c in enumerate(cells)}
    I, J, K = zip(*[(at[i, j], at[j, k], at[i, k])
                    for i, j in cells for k in range(j, n)])
    one = np.zeros(len(cells), dtype=np.int64)
    one[[at[i, i] for i in range(n)]] = 1
    return StructureConstants.from_coo(F, len(cells), I, J, K,
                                       np.ones(len(I)), one)


@pytest.mark.parametrize("make", [
    lambda fig5, fig1: fig5.algebra.structure,
    lambda fig5, fig1: fig1.algebra.structure,
    lambda fig5, fig1: rep.end_algebra(ar.direct_sum(
        fig5.algebra, [ar.projective_module(fig5.algebra, 0)] * 3)[0])[0],
    # dimension 55: the Gram product runs over 55^2 > 2048 terms, in slices
    lambda fig5, fig1: _upper_triangular(10),
])
def test_trace_form_gram_matches_the_pairwise_loop(make, fig5, fig1, monkeypatch):
    A = make(fig5, fig1)
    seen = []
    kernel = field.nullspace_basis
    monkeypatch.setattr(field, "nullspace_basis",
                        lambda F_, G: seen.append(G) or kernel(F_, G))
    radb = algebra_radical(A)
    want = oracle.trace_form_gram(A)
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    assert np.array_equal(radb, oracle.nullspace_basis(A.F, want))
