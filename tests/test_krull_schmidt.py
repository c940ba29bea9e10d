"""The one-pass Krull-Schmidt split of `rep.decompose` against the two
splitters kept in `oracle_krull_schmidt`, and the Frobenius certificate
behind NonSplitEndError."""

import numpy as np
import pytest

import skewcover.ar as ar
import skewcover.rep as rep
from skewcover.ar import (CapExceededError, direct_sum, knit_ar_quiver,
                          simple_module)
from skewcover.field import factor_poly, minimal_polynomial
from skewcover.rep import (ModuleTable, NonSplitEndError, Representation,
                           decompose, end_algebra, is_isomorphic,
                           match_summands)

from oracle_krull_schmidt import (_total_matrix, certify_first_krull_schmidt,
                                  oracle_krull_schmidt)
from test_module_identity import F, _base_change, _kronecker

# x^2 - c is irreducible for these: c^((p-1)/2) = -1 mod 1009
NON_SQUARE, NON_SQUARE_2 = 11, 17


def _companion_module(alg, char_poly):
    """The Kronecker module F^n --(1, C)--> F^n, C the companion matrix of
    the monic `char_poly` (low to high): End is F_p[x]/(char_poly) when
    that is irreducible."""
    n = len(char_poly) - 1
    C = F.zeros(n, n)
    C[1:, :-1] = F.eye(n - 1)
    C[:, -1] = [(-c) % F.p for c in char_poly[:-1]]
    return Representation(alg, (n, n), [F.eye(n), C])


def _irreducible_cubic():
    c = next(c for c in range(2, F.p)
             if len(factor_poly(F, [(-c) % F.p, 0, 0, 1])) == 1)
    return [(-c) % F.p, 0, 0, 1]


def _assert_matches_oracle(M):
    """The summands equal the oracle's up to isomorphism, position by
    position: the order reaches knitted module numbering, so summands with
    equal sort keys (dims, label) must also tie-break as the oracle's do."""
    got = [s.rep for s in decompose(M)]
    want = [s.rep for s in oracle_krull_schmidt(M)]
    assert len(got) == len(want), M
    assert all(is_isomorphic(g, w) for g, w in zip(got, want)), M
    return got


@pytest.fixture(scope="module")
def free_a3_arq(free_a3):
    return knit_ar_quiver(free_a3.algebra)


@pytest.mark.parametrize("arq", ["fig5_arq", "fig6_arq", "free_a3_arq"])
def test_ar_middle_terms_match_oracle(request, arq):
    sequences = request.getfixturevalue(arq).sequences
    assert sequences
    for seq in sequences.values():
        _assert_matches_oracle(seq.middle)


def test_kronecker_knitted_to_cap_20_matches_oracle(kronecker, monkeypatch):
    seen = {}
    real = ar.decompose

    def record(M):
        seen.setdefault(ModuleTable.key(M), M)
        return real(M)

    monkeypatch.setattr(ar, "decompose", record)
    with pytest.raises(CapExceededError):
        knit_ar_quiver(kronecker.algebra, max_dimension=20)
    split = [M for M in seen.values() if len(_assert_matches_oracle(M)) > 1]
    assert len(split) >= 10


@pytest.mark.parametrize("seed", range(3))
def test_equal_keys_match_oracle_as_a_multiset(seed):
    """Regular modules k --(1, c)--> k share dims and label, so their order
    among themselves is the split's (see `decompose`), not the oracle's:
    only the key order and the multiset are fixed."""
    alg = _kronecker()
    parts = [_companion_module(alg, [c, 1]) for c in (1, 0, 1, 2, 4)]
    M = _base_change(direct_sum(alg, parts)[0], np.random.default_rng(seed))
    got = [s.rep for s in decompose(M)]
    want = [s.rep for s in oracle_krull_schmidt(M)]
    assert [r.dims for r in got] == [(1, 1)] * 5
    pairs = match_summands(got, want)
    assert pairs is not None and len(pairs) == 5


@pytest.mark.parametrize("seed", range(4))
def test_noncommutative_top_matches_oracle(seed):
    """X + X + Y has End/rad = M_2(F_p) x F_p."""
    alg = _kronecker()
    X = simple_module(alg, 0)
    Y = _companion_module(alg, [2, 1])
    M = _base_change(direct_sum(alg, [X, X, Y])[0], np.random.default_rng(seed))
    got = _assert_matches_oracle(M)
    assert [r.dims for r in got] == [(1, 0), (1, 0), (1, 1)]


def test_non_split_plus_simple_names_the_piece():
    alg = _kronecker()
    R = _companion_module(alg, [(-NON_SQUARE) % F.p, 0, 1])
    M = direct_sum(alg, [R, simple_module(alg, 0)])[0]
    with pytest.raises(NonSplitEndError) as exc:
        decompose(M)
    assert "(2, 2)" in str(exc.value) and "(3, 2)" not in str(exc.value)
    with pytest.raises(NonSplitEndError):
        oracle_krull_schmidt(M)


def _lift_splits(M, coords):
    _, H = end_algebra(M)
    f = sum(int(c) * _total_matrix(b) for c, b in zip(coords, H.basis)) % F.p
    return len(factor_poly(F, minimal_polynomial(F, f))) > 1


def test_frobenius_certificate_splits_a_product_of_fields():
    """End/rad = F_{p^2} x F_{p^2} and F_p x F_p are commutative with a
    two-dimensional fixed subalgebra: a splitting lift, not a refusal."""
    alg = _kronecker()
    R1 = _companion_module(alg, [(-NON_SQUARE) % F.p, 0, 1])
    R2 = _companion_module(alg, [(-NON_SQUARE_2) % F.p, 0, 1])
    S1, S2 = _companion_module(alg, [2, 1]), _companion_module(alg, [3, 1])
    for parts in ([R1, R2], [S1, S2]):
        M = direct_sum(alg, parts)[0]
        assert _lift_splits(M, rep._frobenius_fixed(M))


@pytest.mark.parametrize("char_poly,degree", [
    ([(-NON_SQUARE) % F.p, 0, 1], 2), (_irreducible_cubic(), 3)])
def test_frobenius_certificate_refuses_a_field(char_poly, degree):
    M = _companion_module(_kronecker(), char_poly)
    with pytest.raises(NonSplitEndError) as exc:
        rep._frobenius_fixed(M)
    assert f"dimension vector {(degree, degree)}" in str(exc.value)
    assert f"{F.p}^{degree}, of degree {degree}" in str(exc.value)
    with pytest.raises(NonSplitEndError):
        decompose(M)


def _square(char_poly):
    return [sum(char_poly[i] * char_poly[k - i] for i in range(len(char_poly))
                if 0 <= k - i < len(char_poly)) % F.p
            for k in range(2 * len(char_poly) - 1)]


@pytest.mark.parametrize("seed", range(3))
def test_frobenius_certificate_refuses_with_a_radical(seed):
    """Companion of (x^2 - c)^2: End = F_p[x]/((x^2 - c)^2) has a
    two-dimensional radical and End/rad = F_{p^2}; every drawn element
    fails, so the certificate is computed on a nonzero radical."""
    alg = _kronecker()
    M = _companion_module(alg, _square([(-NON_SQUARE) % F.p, 0, 1]))
    M = _base_change(M, np.random.default_rng(seed))
    E, _ = end_algebra(M)
    assert (E.dim, rep.end_radical(M).shape[0]) == (4, 2)
    for run in (rep._frobenius_fixed, decompose):
        with pytest.raises(NonSplitEndError) as exc:
            run(M)
        assert "dimension vector (4, 4)" in str(exc.value)
        assert f"{F.p}^2, of degree 2" in str(exc.value)
    with pytest.raises(NonSplitEndError):
        oracle_krull_schmidt(M)


@pytest.mark.parametrize("seed", range(3))
def test_frobenius_certificate_splits_with_a_radical(seed):
    """The companions of (x^2 - c)^2 at two non-squares: End/rad =
    F_{p^2} x F_{p^2} over a nonzero radical, so the lift splits, and the
    refusal names a (4, 4) piece, not the sum."""
    alg = _kronecker()
    parts = [_companion_module(alg, _square([(-c) % F.p, 0, 1]))
             for c in (NON_SQUARE, NON_SQUARE_2)]
    M = _base_change(direct_sum(alg, parts)[0], np.random.default_rng(seed))
    assert rep.end_radical(M).shape[0] == 4
    assert _lift_splits(M, rep._frobenius_fixed(M))
    with pytest.raises(NonSplitEndError, match=r"vector \(4, 4\).*degree 2$"):
        decompose(M)


def test_frobenius_certificate_rejects_noncommutative_top():
    alg = _kronecker()
    X = simple_module(alg, 0)
    M = direct_sum(alg, [X, X])[0]
    with pytest.raises(AssertionError, match="not commutative"):
        rep._frobenius_fixed(M)


def test_splitting_elements_are_drawn_lazily(monkeypatch):
    """Four pairwise non-isomorphic bricks: End = F_p^4, and the first
    element, sum (k+1) b_k, splits all four apart in one pass."""
    alg = _kronecker()
    bricks = [_companion_module(alg, [c, 1]) for c in range(4)]
    M = _base_change(direct_sum(alg, bricks)[0], np.random.default_rng(0))
    calls = []
    real = rep.minimal_polynomial
    monkeypatch.setattr(rep, "minimal_polynomial",
                        lambda F_, A: calls.append(A) or real(F_, A))
    assert len(decompose(M)) == 4
    assert len(calls) == 1


def test_root_is_split_before_it_is_certified(monkeypatch):
    """The four-brick module of the test above splits on its first
    candidate, so End(M) gets no structure constants and no radical; only
    the four bricks are certified."""
    alg = _kronecker()
    bricks = [_companion_module(alg, [c, 1]) for c in range(4)]
    M = _base_change(direct_sum(alg, bricks)[0], np.random.default_rng(0))
    structured, radicals = [], []
    real_end, real_radical = rep._end_structure, rep.algebra_radical
    monkeypatch.setattr(rep, "_end_structure",
                        lambda X, H: structured.append(X) or real_end(X, H))
    monkeypatch.setattr(rep, "algebra_radical",
                        lambda E: radicals.append(E) or real_radical(E))
    assert len(decompose(M)) == 4
    assert len(structured) == 4 and all(X is not M for X in structured)
    assert radicals == []


def test_summands_match_certify_first_oracle(recorded_knits):
    """Every module the recorded knits decompose, over Lambda and Lambda G:
    the same summands as certifying first, down to the maps, the witness
    blocks and the order."""
    split = 0
    for knit in recorded_knits.values():
        for M in knit.decomposed:
            got, want = rep._krull_schmidt(M), certify_first_krull_schmidt(M)
            assert (got is None) == (want is None), M
            if got is None:
                continue
            split += 1
            assert len(got) == len(want), M
            for (dims, maps, layers, inc, prj), w in zip(got, want):
                assert dims == w[0]
                for mine, theirs in zip((maps, inc, prj), w[1:]):
                    assert len(mine) == len(theirs)
                    assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
                assert layers == Representation(M.algebra, dims, maps).radical_layers()
    assert split >= 40
