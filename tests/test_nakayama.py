"""The translate both ways through the Nakayama functors on a minimal
presentation and copresentation, injectives built over the algebra itself,
and the cover and envelope tests for projectives and injectives, against
the transpose over the opposite algebra and the summand scan kept in
`oracle_ar`."""

import functools
from collections import Counter

import numpy as np
import pytest

import oracle_ar
from conftest import load_built, load_generated
from skewcover import ar
from skewcover.ar import (ARToolkit, cokernel_rep, direct_sum, injective_module,
                          kernel_subrep, knit_ar_quiver, projective_module)
from skewcover.pushdown import pushdown_module
from skewcover.quiver import BoundAlgebra
from skewcover.rep import IsoClasses, decompose, is_isomorphic, twist
from skewcover.skew import build_presentation

INPUTS = ("fig5", "fig6", "free_action_a3", "star2_2", "star3_1", "cover2_4")


def _algebras(name):
    """The algebra of the input and its skew algebra."""
    b = load_generated(name) if name.startswith(("star", "cover")) \
        else load_built(f"{name}.skw")
    return b.algebra, build_presentation(b.algebra, b.group, b.action).algebra


@functools.cache
def _knitted(name):
    """(algebra, its knitted modules) for the input and its skew algebra."""
    return [(alg, knit_ar_quiver(alg).modules) for alg in _algebras(name)]


def _same_matrices(M, N):
    return M.dims == N.dims and all(np.array_equal(x, y)
                                    for x, y in zip(M.maps, N.maps))


@pytest.mark.parametrize("name", INPUTS)
def test_tau_both_ways_match_the_transpose_oracle(name):
    for alg, modules in _knitted(name):
        tk, op = ARToolkit(alg), oracle_ar.opposite(alg)
        for M in modules:
            assert is_isomorphic(tk.tau_from_presentation(tk.minimal_presentation(M)),
                                 oracle_ar.tau(alg, op, M))
            assert is_isomorphic(tk.tau_minus(M),
                                 oracle_ar.tau_minus(alg, op, M))


@pytest.mark.parametrize("name", INPUTS)
def test_projective_and_injective_tests_match_the_summand_scan(name):
    for alg, modules in _knitted(name):
        tk = ARToolkit(alg)
        projs, injs = IsoClasses(tk.projectives), IsoClasses(tk.injectives)
        mixed = [direct_sum(alg, [X, S])[0] for X in tk.projectives + tk.injectives
                 for S in tk.simples]
        for M in [*modules, direct_sum(alg, [])[0], *mixed]:
            assert tk.is_projective(M) == oracle_ar.summands_in(M, projs)
            assert tk.is_injective(M) == oracle_ar.summands_in(M, injs)


@pytest.mark.parametrize("name", INPUTS + ("kronecker_z3",))
def test_monomial_injectives_equal_the_duals_of_opposite_projectives(name):
    for alg in _algebras(name):
        assert all(len(r.terms) == 1 for r in alg.relations)
        op = oracle_ar.opposite(alg)
        for v in range(alg.quiver.n_vertices):
            assert _same_matrices(injective_module(alg, v),
                                  oracle_ar.injective_module(alg, op, v))
            assert _same_matrices(projective_module(alg, v),
                                  oracle_ar.projective_module(alg, v))


def test_fig1_injectives_only_isomorphic(fig1):
    """fig1's commutativity relation gives the opposite algebra another
    normal-form basis, so the old duals differ in their matrices."""
    alg = fig1.algebra
    op = oracle_ar.opposite(alg)
    pairs = [(injective_module(alg, v), oracle_ar.injective_module(alg, op, v))
             for v in range(alg.quiver.n_vertices)]
    assert all(is_isomorphic(new, old) for new, old in pairs)
    assert not all(_same_matrices(new, old) for new, old in pairs)


def test_projectives_and_injectives_built_once_and_read_only(
        fig6, fig5, fig5_pres, monkeypatch):
    """A knit builds each P_v and I_v once, for its toolkit, and every
    module construction hands out read-only maps."""
    builders, built = ("projective_module", "injective_module"), Counter()
    for name in builders:
        def counted(alg, v, make=getattr(ar, name), name=name):
            built[name, v] += 1
            return make(alg, v)
        monkeypatch.setattr(ar, name, counted)
    knit_ar_quiver(fig6.algebra)
    assert built == {(name, v): 1 for name in builders
                     for v in range(fig6.algebra.quiver.n_vertices)}

    alg, g = fig5.algebra, fig5.group.elements[1]
    tk = ARToolkit(alg)
    P, I = tk.projectives[0], tk.injectives[3]
    PI = direct_sum(alg, [P, I])[0]
    modules = [P, I, PI, *[s.rep for s in decompose(PI)],
               kernel_subrep(tk._hull(I, dual=False)[1])[0],
               cokernel_rep(tk._hull(P, dual=True)[1])[0], twist(fig5.action, g, I),
               pushdown_module(fig5_pres, fig5.modules["M_1_2"]).rep,
               *fig5.modules.values()]
    for M in modules:
        assert all(not m.flags.writeable for m in M.maps)
        with pytest.raises(ValueError):
            M.maps[0][...] = 0
        with pytest.raises(TypeError):
            M.maps[0] = M.maps[0]


def test_opposite_involution(fig5):
    op = oracle_ar.opposite(fig5.algebra)
    assert op.dim == fig5.algebra.dim
    opop = oracle_ar.opposite(op)
    assert opop.dim == fig5.algebra.dim
    assert [w.arrows for w in opop.basis] == [w.arrows for w in fig5.algebra.basis]


def test_knitting_builds_no_algebra(fig6, fig5_pres, monkeypatch):
    builds = []
    build = BoundAlgebra._build

    def counted(self, *args):
        builds.append(self)
        return build(self, *args)

    monkeypatch.setattr(BoundAlgebra, "_build", counted)
    knit_ar_quiver(fig6.algebra)
    knit_ar_quiver(fig5_pres.algebra)
    assert builds == []
