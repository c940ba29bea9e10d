"""The class of Ext^1(T, tau T) = Hom(K, tau T)/W that an almost split
sequence is pushed out along.  `ar._socle_class` descends through
rad End(tau T) acting on the left; `oracle_ar.right_socle_class` is the
selection under the right End(T)-action, through lifts to the projective
cover, that it replaced.  Both must span the same line of Ext^1 on every
knitted sequence, the descent must run and land in the socle where Ext^1
has more than one dimension, and it must stop.
"""

import functools

import numpy as np
import pytest

import oracle_ar
from conftest import load_built, load_generated
from oracle_paper import verify_almost_split
from skewcover import ar
from skewcover.ar import ARToolkit, knit_ar_quiver
from skewcover.field import PrimeField, rank
from skewcover.quiver import BoundAlgebra, Quiver, RelationElement, make_path
from skewcover.rep import Representation, end_algebra, hom_basis
from skewcover.skew import build_presentation

F = PrimeField(1009)
INPUTS = ("fig5", "fig6", "free_action_a3", "star3_1", "cover2_4")
TRUNCATED = range(3, 8)


def _truncated(n: int) -> BoundAlgebra:
    """F_p[x]/(x^n): one vertex, one loop x, x^n = 0."""
    q = Quiver(["1"], [("x", "1", "1")])
    return BoundAlgebra(F, q, [RelationElement(((1, make_path(q, (0,) * n)),))])


def _uniserial(alg: BoundAlgebra, j: int) -> Representation:
    """F_p[x]/(x^j) as a module, x a single nilpotent Jordan block."""
    return Representation(alg, (j,), [np.eye(j, k=-1, dtype=np.int64)])


@functools.cache
def _knitted(name: str):
    """(algebra, AR quiver) for the input and its skew algebra, or for
    F_p[x]/(x^n) when `name` is n."""
    if isinstance(name, int):
        algs = [_truncated(name)]
    else:
        b = load_generated(name) if name.startswith(("star", "cover")) \
            else load_built(f"{name}.skw")
        algs = [b.algebra,
                build_presentation(b.algebra, b.group, b.action).algebra]
    return [(alg, knit_ar_quiver(alg)) for alg in algs]


def _rank_mod(W: np.ndarray, maps) -> int:
    """dim (W + span of the maps) - dim W."""
    rows = [*W, *(f.to_vector() for f in maps)]
    return rank(F, np.stack(rows)) - W.shape[0]


def _candidates(tk: ARToolkit, T: Representation, X: Representation):
    return hom_basis(tk.minimal_presentation(T).Z, X).basis


@pytest.mark.parametrize("name", [*INPUTS, *TRUNCATED], ids=str)
def test_left_socle_class_is_the_right_action_oracle_class(name):
    for alg, arq in _knitted(name):
        tk = ARToolkit(alg)
        assert arq.sequences
        for i, seq in arq.sequences.items():
            T = arq.modules[i]
            X, W, want = oracle_ar.right_socle_class(tk, T)
            assert all(map(np.array_equal, X.maps, seq.left.maps))
            got = ar._socle_class(X, W, _candidates(tk, T, X))
            assert _rank_mod(W, [got]) == _rank_mod(W, [got, want]) == 1


@pytest.mark.parametrize("n,j", [(n, j) for n in TRUNCATED
                                 for j in range(2, n - 1)])
def test_descent_from_the_reversed_basis_lands_in_the_socle(n, j):
    """T = F_p[x]/(x^j) over F_p[x]/(x^n) with 2 <= j <= n-2 has
    dim Ext^1(T, tau T) >= 2; fed the Hom(K, tau T) basis backwards, the
    descent starts off the socle and must step down into it."""
    alg = _truncated(n)
    tk, T = ARToolkit(alg), _uniserial(alg, j)
    X, W, socle = oracle_ar.right_socle_class(tk, T)
    backwards = _candidates(tk, T, X)[::-1]
    assert _rank_mod(W, backwards) >= 2
    first = next(f for f in backwards if _rank_mod(W, [f]))
    assert _rank_mod(W, [first, socle]) == 2
    got = ar._socle_class(X, W, backwards)
    assert _rank_mod(W, [got]) == _rank_mod(W, [got, socle]) == 1


def test_a_radical_that_is_not_nilpotent_stops_the_descent(monkeypatch):
    """With the identity planted as the radical of End(tau T), phi h never
    falls into W; the descent gives up after dim End(tau T) steps."""
    alg = _truncated(4)
    tk, T = ARToolkit(alg), _uniserial(alg, 2)
    X, W, _ = oracle_ar.right_socle_class(tk, T)
    one = end_algebra(X)[0].one.reshape(1, -1)
    monkeypatch.setattr(ar, "end_radical", lambda M: one)
    with pytest.raises(AssertionError, match="descent did not end"):
        ar._socle_class(X, W, _candidates(tk, T, X))


@pytest.mark.parametrize("name", ["fig6", *TRUNCATED], ids=str)
def test_every_sequence_is_almost_split(name):
    for _, arq in _knitted(name):
        for i, seq in arq.sequences.items():
            assert verify_almost_split(seq, arq.modules, arq.calc), i
