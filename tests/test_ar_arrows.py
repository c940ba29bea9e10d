"""The AR quiver read off the knitted meshes equals the radical oracle
dim irr(X, Y) = dim rad(X, Y) - dim rad^2(X, Y) over every ordered pair;
the radical powers grown one source row at a time equal the all-pairs
layers of the oracle; the Yoneda chains grown along the meshes have the
dimensions of the oracle's rad^n(P_a, Y), and the rank and stable rank
read off them equal the oracle's; neither knitting nor the rank builds a
radical row."""

from functools import cache

import numpy as np
import pytest

import skewcover.ar
from skewcover.ar import category_rank, knit_ar_quiver, projective_modules
from skewcover.field import rank, row_space
from skewcover.rep import RadicalCalculator, irr_space
from skewcover.skew import build_presentation

from conftest import load_built, load_generated
from oracle_ar import LayerRadicalCalculator, layer_category_rank

ALGEBRAS = ["fig5", "fig6", "free_action_a3", "star2_2", "star3_1", "cover2_4"]


def _built(name: str):
    if name.startswith(("star", "cover")):
        return load_generated(name)
    return load_built(f"{name}.skw")


@cache
def _knit(name: str, skew: bool):
    b = _built(name)
    alg = (build_presentation(b.algebra, b.group, b.action).algebra
           if skew else b.algebra)
    return knit_ar_quiver(alg)


def _oracle_arrows(modules) -> dict[tuple[int, int], int]:
    calc = RadicalCalculator(modules)
    arrows = {}
    for i, M in enumerate(modules):
        for j, N in enumerate(modules):
            d, reps = irr_space(calc, M, N)
            assert len(reps) == d
            if d:
                arrows[(i, j)] = d
    return arrows


@pytest.mark.parametrize("skew", [False, True], ids=["base", "skew"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_mesh_arrows_match_radical_oracle(name, skew):
    arq = _knit(name, skew)
    oracle = _oracle_arrows(arq.modules)
    assert oracle
    assert arq.arrows == oracle
    assert list(arq.arrows) == sorted(oracle)


@pytest.mark.parametrize("skew", [False, True], ids=["base", "skew"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_radical_rows_match_layer_oracle(name, skew):
    """Identical echelon bases of rad^n(i, j) for every ordered pair and
    every n up to the rank, and the same (rank, stable rank)."""
    arq = _knit(name, skew)
    r, s = category_rank(arq)
    assert (r, s) == layer_category_rank(arq)
    calc = RadicalCalculator(arq.modules)
    oracle = LayerRadicalCalculator(arq.modules)
    m = len(arq.modules)
    for n in range(1, r.value + 1):
        for i in range(m):
            for j in range(m):
                assert np.array_equal(calc.rad(i, j, n), oracle.rad(i, j, n)), \
                    (n, i, j)
    assert calc.all_zero_at(r.value)
    assert not calc.all_zero_at(r.value - 1)


@pytest.mark.parametrize("skew", [False, True], ids=["base", "skew"])
@pytest.mark.parametrize("name", ["fig5", "fig6", "free_action_a3", "star3_1"])
def test_yoneda_chains_match_radical_oracle(name, skew):
    """For every vertex a, class Y and n up to the rank, dim U_n^a(Y), the
    rows of Y's chain inside Y(a), is dim rad^n(P_a, Y) of the layer
    oracle; each row lies in one vertex block, and at the rank every chain
    is zero."""
    arq = _knit(name, skew)
    r, _ = category_rank(arq)
    F = arq.algebra.F
    oracle = LayerRadicalCalculator(arq.modules)
    tops = [arq.calc.index_of(P) for P in projective_modules(arq.algebra)]
    levels = list(zip(range(1, r.value + 1), skewcover.ar._yoneda_chains(arq)))
    for n, chains in levels:
        for y, (Y, U) in enumerate(zip(arq.modules, chains)):
            starts = np.cumsum([0, *Y.dims])
            blocks = [U[:, starts[a]: starts[a + 1]] for a in range(len(Y.dims))]
            assert all(sum(b[row].any() for b in blocks) == 1 for row in range(len(U)))
            for a, pa in enumerate(tops):
                assert rank(F, blocks[a]) == oracle.rad(pa, y, n).shape[0], (n, a, y)
    assert not any(len(U) for U in levels[-1][1])
    assert any(len(U) for U in levels[-2][1])


@pytest.mark.parametrize("skew", [False, True], ids=["base", "skew"])
@pytest.mark.parametrize("name", ["cover3_3", "star2_3"])
def test_rank_matches_layer_oracle(name, skew):
    arq = _knit(name, skew)
    assert category_rank(arq) == layer_category_rank(arq)


def test_rank_cutoff_reported_on_both_values(fig5_arq, monkeypatch):
    """fig5 has rank 13: a cutoff of 2 reports ">= 2" for the rank and the
    stable rank alike."""
    monkeypatch.setattr(skewcover.ar, "RADICAL_CUTOFF", 2)
    r, s = category_rank(fig5_arq)
    assert (str(r), str(s)) == (">= 2", ">= 2")


def test_knitting_builds_no_radical_layer(fig5):
    """Neither the knit nor the rank builds a radical row: the rank grows
    Yoneda chains along the meshes the knit records, one per sequence."""
    arq = knit_ar_quiver(fig5.algebra)
    assert arq.calc._rows == {}
    r, s = category_rank(arq)
    assert (r.finite, r.value, s.finite, s.value) == (True, 13, True, 13)
    assert arq.calc._rows == {}
    assert set(arq.meshes) == set(arq.sequences)
    for t, mesh in arq.meshes.items():
        assert [k for k, _ in mesh.middle] == [
            arq.calc.index_of(s.rep) for s in arq.sequences[t].middle_summands]


@pytest.mark.parametrize("arq_name", ["fig5_arq", "fig6_arq"])
def test_rad_returns_echelon_bases(arq_name, request):
    """Every rad(i, j, n) with n <= 3 is its own echelon form, rad^1 off
    the diagonal included, and rad_dim counts its rows."""
    arq = request.getfixturevalue(arq_name)
    calc, m = RadicalCalculator(arq.modules), len(arq.modules)
    reduced = 0
    for n in range(1, 4):
        for i in range(m):
            for j in range(m):
                basis = calc.rad(i, j, n)
                assert np.array_equal(basis, row_space(calc.F, basis)), (n, i, j)
                assert calc.rad_dim(i, j, n) == basis.shape[0]
                reduced += n == 1 and i != j and basis.shape[0] > 0
    assert reduced
