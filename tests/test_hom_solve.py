"""The sparse Hom solve and the End algebras built on it.

`rep._solve_hom` builds the commuting-square system as sparse rows and
checks its basis with one stacked product per arrow; `oracle_dense.solve_hom`
is the dense solver it replaced.  Both must return the same blocks on every
ordered pair of knitted indecomposables, and a wrong kernel result or a
wrong End basis must still be caught.
"""

import numpy as np
import pytest

import oracle_dense as oracle
from conftest import load_built, load_generated
from skewcover import ar, field, rep
from skewcover.ar import CapExceededError, knit_ar_quiver, simple_module
from skewcover.field import PrimeField, StructureConstants, algebra_radical
from skewcover.quiver import BoundAlgebra, Quiver, RelationElement, make_path
from skewcover.skew import build_presentation

F = PrimeField(1009)

# The bundled representation-finite inputs and the generated inputs of the
# benchmark's module workload.
FINITE = ("fig5.skw", "fig6.skw", "free_action_a3.skw", "star3_1", "cover2_4")


def _same_bases(mods):
    for M in mods:
        for N in mods:
            got, want = rep._solve_hom(M, N), oracle.solve_hom(M, N)
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
    Q = rep._solve_hom(P, P)
    assert Q
    good = np.concatenate([b.reshape(-1) for b in Q[0]])
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
    key = rep.ModuleTable.key(M)
    not_one = [[np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)]]
    rep.module_table(alg)._entries[("hom", key, key)] = not_one
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
    key = rep.ModuleTable.key(M)
    rep.module_table(alg)._entries[("hom", key, key)] = [
        [np.linalg.matrix_power(x, k)] for k in powers]
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
