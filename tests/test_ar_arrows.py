"""The AR quiver read off the knitted meshes equals the radical oracle
dim irr(X, Y) = dim rad(X, Y) - dim rad^2(X, Y) over every ordered pair,
and knitting builds no radical layer."""

import pytest

from skewcover.ar import category_rank, knit_ar_quiver
from skewcover.rep import RadicalCalculator, irr_space
from skewcover.skew import build_presentation

from conftest import load_built, load_generated


def _built(name: str):
    if name.startswith(("star", "cover")):
        return load_generated(name)
    return load_built(f"{name}.skw")


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
@pytest.mark.parametrize("name", ["fig5", "fig6", "free_action_a3",
                                  "star2_2", "star3_1", "cover2_4"])
def test_mesh_arrows_match_radical_oracle(name, skew):
    b = _built(name)
    alg = (build_presentation(b.algebra, b.group, b.action).algebra
           if skew else b.algebra)
    arq = knit_ar_quiver(alg)
    oracle = _oracle_arrows(arq.modules)
    assert oracle
    assert arq.arrows == oracle
    assert list(arq.arrows) == sorted(oracle)


def test_knitting_builds_no_radical_layer(fig5):
    arq = knit_ar_quiver(fig5.algebra)
    assert arq.calc._rad == []
    r, s = category_rank(arq)
    assert (r.finite, r.value, s.finite, s.value) == (True, 13, True, 13)
    assert arq.calc._rad
