"""The isomorphism-class index `rep.IsoClasses` and the greedy summand
matcher `rep.match_summands`, with the lookups built on them checked
against brute-force scans over the same lists."""

import numpy as np
import pytest

import skewcover.rep as rep
from skewcover.quiver import BoundAlgebra, Quiver
from skewcover.ar import ARToolkit, direct_sum, simple_module
from skewcover.pushdown import decompose_pushdown, pushdown_module
from skewcover.rep import (IsoClasses, ModuleTable, RadicalCalculator,
                           Representation, decompose, is_isomorphic,
                           match_summands, twist)

from oracle_paper import inverse_morphism, semi_dense_witness
from test_module_identity import F, _base_change, _kronecker, _regular


def _simple(alg, v):
    dims = (1, 0) if v == 0 else (0, 1)
    return Representation(alg, dims, [None, None])


def _spy(monkeypatch):
    """Record the (source, target) pairs handed to `isomorphism`."""
    calls = []
    real = rep.isomorphism
    monkeypatch.setattr(rep, "isomorphism",
                        lambda M, N: calls.append((M, N)) or real(M, N))
    return calls


# -- IsoClasses ---------------------------------------------------------------

def test_add_finds_base_changed_copies(fig5_arq):
    mods = fig5_arq.modules
    classes = IsoClasses()
    assert [classes.add(M) for M in mods] == list(range(len(mods)))
    gen = np.random.default_rng(3)
    for i, M in enumerate(mods):
        assert classes.add(_base_change(M, gen)) == i
    assert len(classes) == len(mods)
    assert all(a is b for a, b in zip(classes.reps, mods))


def test_locate_returns_an_isomorphism_from_the_stored_module():
    alg = _kronecker()
    classes = IsoClasses([_regular(alg, lam) for lam in range(4)])
    gen = np.random.default_rng(7)
    for i, R in enumerate(classes.reps):
        for M in (R, _base_change(R, gen)):
            j, u = classes.locate(M)
            assert j == i == classes.index(M)
            assert u.source is R and u.target is M
            assert u.is_valid() and u.is_invertible()
            assert inverse_morphism(u).is_valid()


def test_missing_module_is_refused():
    alg = _kronecker()
    classes = IsoClasses([_regular(alg, 0), _simple(alg, 0)])
    for M in (_regular(alg, 5), _simple(alg, 1)):
        assert classes.locate(M) is None
        with pytest.raises(KeyError):
            classes.index(M)
    assert len(classes) == 2


def test_lookup_scans_its_dimension_bucket_in_insertion_order(monkeypatch):
    alg = _kronecker()
    A0, A1, A2 = (_regular(alg, lam) for lam in range(3))
    classes = IsoClasses()
    for M in (_simple(alg, 1), A0, _simple(alg, 0), A1,
              direct_sum(alg, [A0, A1])[0], A2):
        classes.add(M)
    calls = _spy(monkeypatch)
    M = _base_change(A1, np.random.default_rng(1))
    assert classes.add(M) == 3
    assert calls == [(A0, M), (A1, M)]
    calls.clear()
    X = _regular(alg, 9)
    assert classes.add(X) == 6 and classes.reps[6] is X
    assert calls == [(A0, X), (A1, X), (A2, X)]
    calls.clear()
    assert classes.index(A2) == 5 and calls == []


def test_first_match_wins_on_an_unchecked_list():
    """Modules handed to the constructor are not deduplicated; a lookup
    returns the first isomorphic one, as `RadicalCalculator` relies on."""
    alg = _kronecker()
    gen = np.random.default_rng(2)
    A = _regular(alg, 4)
    mods = [_regular(alg, 0), _base_change(A, gen), _base_change(A, gen)]
    M = _base_change(A, gen)
    assert IsoClasses(mods).index(M) == 1
    assert RadicalCalculator(mods).index_of(M) == 1
    assert RadicalCalculator(mods).index_of(mods[2]) == 2


# -- match_summands -----------------------------------------------------------

def test_match_summands_takes_the_first_unused_partner():
    alg = _kronecker()
    gen = np.random.default_rng(4)
    A, B, C = _regular(alg, 1), _regular(alg, 2), _simple(alg, 0)
    xs = [A, B, _base_change(A, gen)]
    ys = [_base_change(B, gen), C, _base_change(A, gen), A]
    pairs = match_summands(xs, ys)
    assert [k for k, _ in pairs] == [2, 0, 3]
    for x, (k, u) in zip(xs, pairs):
        assert u.source is x and u.target is ys[k]
        assert u.is_valid() and u.is_invertible()
    assert match_summands([A, A], [A, B]) is None
    assert match_summands([], ys) == []


# -- equivalence with brute-force scans ---------------------------------------

def _brute_in(M, mods):
    """Every summand of M isomorphic to a module of `mods` (the linear scan
    the index replaced)."""
    if M.is_zero():
        return True
    return all(any(is_isomorphic(s.rep, P) for P in mods if P.dims == s.rep.dims)
               for s in decompose(M))


def test_projective_injective_flags_match_a_scan(fig5_arq, fig6_arq):
    for arq in (fig5_arq, fig6_arq):
        tk = ARToolkit(arq.algebra)
        for i, M in enumerate(arq.modules):
            proj = _brute_in(M, tk.projectives)
            inj = _brute_in(M, tk.injectives)
            assert arq.projective_flags[i] == proj == tk.is_projective(M)
            assert arq.injective_flags[i] == inj == tk.is_injective(M)
        assert any(arq.projective_flags) and not all(arq.projective_flags)


def _brute_twist_orbit(pres, M):
    """The summands of F M in twist-orbit order, by the linear scan."""
    parts = decompose(pushdown_module(pres, M).rep)
    _, dact = pres.dual_group_action()
    ordered, used = [], set()
    for chi in pres.context.chars.characters:
        tw = twist(dact, chi.exponents, parts[0].rep)
        k = next(k for k, s in enumerate(parts) if k not in used
                 and s.rep.dims == tw.dims and is_isomorphic(s.rep, tw))
        used.add(k)
        ordered.append(parts[k].rep)
    return ordered


@pytest.mark.parametrize("name", ["S2", "M_1_2"])
def test_decompose_pushdown_order_matches_a_scan(fig5, fig5_pres, name):
    M = fig5.modules[name]
    got = [s.rep for _, s in decompose_pushdown(fig5_pres, M).summands]
    want = _brute_twist_orbit(fig5_pres, M)
    assert [ModuleTable.key(R) for R in got] == [ModuleTable.key(R) for R in want]


def _brute_complement(pres, M, N):
    remaining = decompose(pushdown_module(pres, M).rep)
    for t in decompose(N):
        k = next(k for k, s in enumerate(remaining)
                 if s.rep.dims == t.rep.dims and is_isomorphic(s.rep, t.rep))
        remaining.pop(k)
    return [s.rep for s in remaining]


def test_semi_dense_complement_matches_a_scan(fig5_pres, fig5_skew_arq):
    maps = [None] * fig5_pres.qg.n_arrows
    maps[fig5_pres.qg.aindex["x0_a"]] = F.mat([[1]])
    no_preimage = Representation(fig5_pres.algebra, (1, 0, 1, 0, 0), maps)
    for N in [*fig5_skew_arq.modules[:8], no_preimage]:
        M, compl = semi_dense_witness(fig5_pres, N)
        want = _brute_complement(fig5_pres, M, N)
        assert [ModuleTable.key(R) for R in compl] == \
            [ModuleTable.key(R) for R in want]


def test_a_non_isomorphism_solves_no_reverse_hom():
    """On A_2 (1 -> 2), S1 + S2 and P1 share a dimension vector and have a
    nonzero Hom(S1 + S2, P1) with no invertible element; the answer None
    needs no hom basis of P1 -> S1 + S2."""
    alg = BoundAlgebra(F, Quiver(["1", "2"], [("a", "1", "2")]), [])
    M = direct_sum(alg, [simple_module(alg, 0), simple_module(alg, 1)])[0]
    N = Representation(alg, (1, 1), [F.mat([[1]])])
    assert rep.hom_basis(M, N).dimension == 1
    assert rep.isomorphism(M, N) is None
    key = ModuleTable.key
    assert ("hom", key(N), key(M)) not in rep.module_table(alg)._entries
