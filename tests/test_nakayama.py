"""The translate as the kernel of the Nakayama functor on a minimal
presentation, and injectives built over the algebra itself, against the
transpose over the opposite algebra kept in `oracle_ar`."""

import numpy as np
import pytest

import oracle_ar
from conftest import load_built, load_generated
from skewcover.ar import (ARToolkit, injective_module, knit_ar_quiver,
                          projective_module)
from skewcover.rep import is_isomorphic
from skewcover.skew import build_presentation

INPUTS = ("fig5", "fig6", "free_action_a3", "star2_2", "star3_1", "cover2_4")


def _algebras(name):
    """The algebra of the input and its skew algebra."""
    b = load_generated(name) if name.startswith(("star", "cover")) \
        else load_built(f"{name}.skw")
    return b.algebra, build_presentation(b.algebra, b.group, b.action).algebra


def _same_matrices(M, N):
    return M.dims == N.dims and all(np.array_equal(x, y)
                                    for x, y in zip(M.maps, N.maps))


@pytest.mark.parametrize("name", INPUTS)
def test_tau_both_ways_match_the_transpose_oracle(name):
    for alg in _algebras(name):
        tk = ARToolkit(alg)
        for M in knit_ar_quiver(alg).modules:
            assert is_isomorphic(tk.tau(M), oracle_ar.tau(alg, tk.alg_op, M))
            assert is_isomorphic(tk.tau_minus(M),
                                 oracle_ar.tau_minus(alg, tk.alg_op, M))


@pytest.mark.parametrize("name", INPUTS + ("kronecker_z3",))
def test_monomial_injectives_equal_the_duals_of_opposite_projectives(name):
    for alg in _algebras(name):
        assert all(len(r.terms) == 1 for r in alg.relations)
        op = alg.opposite()
        for v in range(alg.quiver.n_vertices):
            assert _same_matrices(injective_module(alg, v),
                                  oracle_ar.injective_module(alg, op, v))
            assert _same_matrices(projective_module(alg, v),
                                  oracle_ar.projective_module(alg, v))


def test_fig1_injectives_only_isomorphic(fig1):
    """fig1's commutativity relation gives the opposite algebra another
    normal-form basis, so the old duals differ in their matrices."""
    alg = fig1.algebra
    op = alg.opposite()
    pairs = [(injective_module(alg, v), oracle_ar.injective_module(alg, op, v))
             for v in range(alg.quiver.n_vertices)]
    assert all(is_isomorphic(new, old) for new, old in pairs)
    assert not all(_same_matrices(new, old) for new, old in pairs)


def test_projectives_and_injectives_built_once_and_read_only(fig6):
    alg = fig6.algebra
    for make in (projective_module, injective_module):
        for v in range(alg.quiver.n_vertices):
            M = make(alg, v)
            assert make(alg, v) is M
            with pytest.raises(ValueError):
                M.maps[0][...] = 0
