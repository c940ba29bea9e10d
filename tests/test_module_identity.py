"""Exact module identity: the split certificate of AR sequences, exact
deterministic isomorphism of decomposable modules, the per-algebra module
table, and the lazy bijection search of isosearch."""

import gc
import inspect
import weakref
from itertools import permutations, product

import numpy as np
import pytest

import skewcover.isosearch as isosearch
import skewcover.rep as rep
from skewcover.ar import direct_sum, split_section
from skewcover.field import PrimeField
from skewcover.isosearch import find_algebra_isomorphism, ordered_bijections
from skewcover.quiver import BoundAlgebra, Quiver
from skewcover.rep import (Representation, decompose, end_algebra, hom_basis,
                           is_isomorphic, isomorphism, module_table)

from oracle_paper import inverse, inverse_morphism

F = PrimeField(1009)


def _kronecker():
    return BoundAlgebra(F, Quiver(["1", "2"], [("al", "1", "2"),
                                               ("be", "1", "2")]), [])


def _regular(alg, lam):
    """The Kronecker module k --(1, lam)--> k; pairwise non-isomorphic."""
    return Representation(alg, (1, 1), [F.mat([[1]]), F.mat([[lam]])])


def _base_change(R, gen):
    """R conjugated by an invertible matrix per vertex."""
    mats = []
    for d in R.dims:
        while True:
            T = F.mat(gen.integers(0, F.p, (d, d)))
            if d == 0 or inverse(F, T) is not None:
                break
        mats.append(T)
    maps = []
    for a, arr in enumerate(R.algebra.quiver.arrows):
        s, t = arr.source, arr.target
        Ti = inverse(F, mats[s]) if R.dims[s] else F.zeros(0, 0)
        maps.append(F.mul(mats[t], F.mul(R.maps[a], Ti)))
    return Representation(R.algebra, R.dims, maps)


def _no_random_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("isomorphism must not draw random numbers")
    monkeypatch.setattr(np.random, "RandomState", refuse)


# -- split certificate --------------------------------------------------------

def test_split_sequence_is_certified_split(fig5, fig5_arq):
    X, T = fig5_arq.modules[3], fig5_arq.modules[10]
    _, _, projs = direct_sum(fig5.algebra, [X, T])
    s = split_section(projs[1])
    assert s is not None and s.is_valid()
    back = projs[1].compose(s)
    assert all(np.array_equal(b, F.eye(b.shape[0])) for b in back.blocks)


def test_ar_sequences_certified_non_split(fig5_arq, fig6_arq):
    for arq in (fig5_arq, fig6_arq):
        assert arq.sequences
        for seq in arq.sequences.values():
            assert split_section(seq.proj) is None


# -- exact isomorphism --------------------------------------------------------

def test_isomorphism_of_sums_is_explicit_and_deterministic(fig5, fig5_arq,
                                                           monkeypatch):
    alg = fig5.algebra
    M, N = fig5_arq.modules[10], fig5_arq.modules[3]
    gen = np.random.default_rng(11)
    total, _, _ = direct_sum(alg, [M, N, N])
    copy, _, _ = direct_sum(alg, [_base_change(N, gen), _base_change(M, gen),
                                  _base_change(N, gen)])
    copy = _base_change(copy, gen)
    matched = []
    real_match = rep._match_summands
    monkeypatch.setattr(rep, "_match_summands",
                        lambda A, B: matched.append(1) or real_match(A, B))
    _no_random_state(monkeypatch)
    for A, B in ((total, copy), (copy, total)):
        u = isomorphism(A, B)
        assert u is not None and u.source is A and u.target is B
        assert u.is_valid() and u.is_invertible()
        assert inverse_morphism(u).is_valid()
    assert matched, "the summand matching was not exercised"


def test_isomorphism_refuses_equal_dims_different_summands(monkeypatch):
    alg = _kronecker()
    A, B = _regular(alg, 0), _regular(alg, 1)
    AA, _, _ = direct_sum(alg, [A, A])
    AB, _, _ = direct_sum(alg, [A, B])
    assert AA.dims == AB.dims
    assert hom_basis(AA, AB).dimension > 0
    _no_random_state(monkeypatch)
    assert isomorphism(AA, AB) is None
    assert isomorphism(AB, AA) is None
    assert not is_isomorphic(A, B)
    u = isomorphism(AB, direct_sum(alg, [B, A])[0])
    assert u is not None and u.is_valid() and u.is_invertible()


def test_no_random_state_in_isomorphism_source():
    assert "RandomState" not in inspect.getsource(rep)


# -- module table -------------------------------------------------------------

def _content_copy(R):
    return Representation(R.algebra, R.dims, [m.copy() for m in R.maps])


def test_table_results_rebound_to_callers_modules(fig5, fig5_arq):
    M, N = fig5_arq.modules[12], fig5_arq.modules[17]
    hom_basis(M, N), end_algebra(M), decompose(M)
    table = module_table(fig5.algebra)
    size = len(table)
    M2, N2 = _content_copy(M), _content_copy(N)
    H = hom_basis(M2, N2)
    assert H.basis and all(f.source is M2 and f.target is N2 for f in H.basis)
    _, HE = end_algebra(M2)
    assert all(f.source is M2 and f.target is M2 for f in HE.basis)
    parts = decompose(M2)
    assert len(parts) == 1 and parts[0].rep is M2
    assert len(table) == size  # all three were hits

    total, _, _ = direct_sum(fig5.algebra, [M, N])
    total2 = _content_copy(total)
    first, second = decompose(total), decompose(total2)
    assert [s.rep.dims for s in first] == [s.rep.dims for s in second]
    for s in second:
        assert s.inclusion.target is total2 and s.projection.source is total2
        assert s.inclusion.source is s.rep and s.projection.target is s.rep
        assert s.projection.compose(s.inclusion).is_valid()


def test_table_entries_are_read_only(fig5_arq):
    f = hom_basis(fig5_arq.modules[12], fig5_arq.modules[12]).basis[0]
    with pytest.raises(ValueError):
        f.blocks[0][...] = 0


def _use_table():
    """Fill the table of a fresh algebra; weak references to both."""
    alg = _kronecker()
    A, B = _regular(alg, 2), _regular(alg, 3)
    AB = direct_sum(alg, [A, B])[0]
    assert isomorphism(AB, direct_sum(alg, [B, A])[0]) is not None
    hom_basis(A, AB), end_algebra(AB), decompose(AB)
    assert len(module_table(alg)) > 0
    return weakref.ref(alg), weakref.ref(module_table(alg))


def test_table_dies_with_its_algebra():
    alg_ref, table_ref = _use_table()
    gc.collect()
    assert alg_ref() is None
    assert table_ref() is None


# -- lazy bijections ----------------------------------------------------------

def test_ordered_bijections_keep_permutation_order():
    classes = [([0, 1, 2], "abc"), ([3], "d"), ([4, 5], "ef")]
    every = []
    for combo in product(*[permutations(t) for _, t in classes]):
        vmap = {}
        for (sources, _), perm in zip(classes, combo):
            vmap.update(zip(sources, perm))
        every.append(vmap)
    assert list(ordered_bijections(classes, lambda m, a, b: True)) == every
    banned = {(1, "a"), (5, "e")}
    kept = [m for m in every if not banned & set(m.items())]
    assert list(ordered_bijections(
        classes, lambda m, a, b: (a, b) not in banned)) == kept
    assert list(ordered_bijections([], lambda m, a, b: True)) == [{}]


def test_first_bijection_costs_one_test_per_vertex():
    """40320 bijections of eight interchangeable vertices; the first one
    must come after eight tests, not after listing them all."""
    tests = []
    first = next(ordered_bijections([(range(8), range(8))],
                                    lambda m, a, b: tests.append(a) or True))
    assert first == {v: v for v in range(8)}
    assert len(tests) == 8


def test_bijection_search_stops_at_the_first_fit(monkeypatch):
    """A star with six leaves has 720 leaf bijections; the identity works,
    so the search draws one vertex and one arrow bijection."""
    leaves = [f"v{i}" for i in range(6)]
    q = Quiver(["c", *leaves], [(f"a{i}", "c", v) for i, v in enumerate(leaves)])
    A, B = BoundAlgebra(F, q, []), BoundAlgebra(F, q, [])
    drawn = []

    def counting(classes, fits):
        for bijection in ordered_bijections(classes, fits):
            drawn.append(bijection)
            yield bijection

    monkeypatch.setattr(isosearch, "ordered_bijections", counting)
    found = find_algebra_isomorphism(A, B)
    assert found is not None
    vmap, amap, _ = found
    assert vmap == {v: v for v in range(7)}
    assert amap == {a: a for a in range(6)}
    assert drawn == [vmap, amap]


def test_bijection_search_prunes_by_arrow_counts(monkeypatch):
    """A path on eight vertices against the same path with its six inner
    vertices listed in reverse: 720 inner bijections, one of them a quiver
    isomorphism, which must be the only vertex bijection drawn."""
    names = [f"v{i}" for i in range(8)]
    arrows = [(f"a{i}", names[i], names[i + 1]) for i in range(7)]
    A = BoundAlgebra(F, Quiver(names, arrows), [])
    B = BoundAlgebra(F, Quiver([names[0], *reversed(names[1:7]), names[7]],
                               arrows), [])
    drawn = []

    def counting(classes, fits):
        for bijection in ordered_bijections(classes, fits):
            drawn.append(bijection)
            yield bijection

    monkeypatch.setattr(isosearch, "ordered_bijections", counting)
    vmap, amap, _ = find_algebra_isomorphism(A, B)
    assert all(B.quiver.vertices[vmap[v]] == name for v, name in enumerate(names))
    assert drawn == [vmap, amap]


def _square(sign: str) -> BoundAlgebra:
    """The commutative square 1 -> 2 -> 4, 1 -> 3 -> 4 with b.a {sign} d.c."""
    from skewcover.inputfmt import build_input, parse_input
    return build_input(parse_input(
        "field p = 1009\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        f"relation 1*b.a + {sign}1*d.c\n")).algebra


def test_scalar_cap_refuses_rather_than_answers_no(monkeypatch):
    """b.a - d.c and b.a + d.c are isomorphic only by a sign on an arrow;
    with the scalar assignments over the cap the search cannot see that,
    so it must refuse, naming the limit, not report no isomorphism."""
    A, B = _square("-"), _square("")
    pool = [1, F.p - 1]
    vmap, amap, scal = find_algebra_isomorphism(A, B, pool)
    assert sorted(scal.values()) == [1, 1, 1, F.p - 1]
    monkeypatch.setattr(isosearch, "MAX_SCALAR_COMBOS", 2 ** 4 - 1)
    with pytest.raises(isosearch.ScalarCapError, match="MAX_SCALAR_COMBOS = 15"):
        find_algebra_isomorphism(A, B, pool)
    # all-ones isomorphisms need no scalars, so the cap does not matter
    assert find_algebra_isomorphism(A, A, pool) is not None


@pytest.mark.parametrize("name", ["fig5", "fig6"])
def test_composites_off_hom_stacks_match_the_basis_loop(name):
    """`split_section`'s matrix and the W of `almost_split_sequence`, read
    off Hom stacks with one product per vertex, equal the old loop over
    basis morphisms on every sequence of the knit."""
    from conftest import load_built
    from skewcover.ar import ARToolkit, _composites, knit_ar_quiver
    alg = load_built(f"{name}.skw").algebra
    tk, compared = ARToolkit(alg), 0

    def same(stacked, vectors, size):
        nonlocal compared
        compared += bool(vectors)
        assert np.array_equal(stacked, np.stack(vectors) if vectors
                              else np.zeros((0, size), dtype=np.int64))

    for seq in knit_ar_quiver(alg).sequences.values():
        T, H = seq.right, hom_basis(seq.right, seq.middle)
        same(_composites(F, H.stacks, after=seq.proj),
             [seq.proj.compose(g).to_vector() for g in H.basis],
             sum(d * d for d in T.dims))
        pres = tk.minimal_presentation(T)
        H = hom_basis(pres.X0, tk.tau_from_presentation(pres))
        same(_composites(F, H.stacks, before=pres.z),
             [g.compose(pres.z).to_vector() for g in H.basis],
             sum(x * k for x, k in zip(H.target.dims, pres.Z.dims)))
    assert compared
