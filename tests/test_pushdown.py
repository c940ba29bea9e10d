import json

import numpy as np
import pytest

from skewcover import pushdown
from skewcover.field import PrimeField, quotient_map, rank, row_space
from skewcover.rep import (Representation, decompose, hom_basis,
                           identity_morphism, is_indecomposable,
                           is_isomorphic, twist)
from skewcover.ar import (direct_sum, knit_ar_quiver, projective_module,
                          simple_module)
from skewcover.pushdown import (decompose_pushdown, pushdown_module,
                                pushdown_morphism, pushdown_twist_gauge,
                                restrict_G_lambda, verify_semi_covering)
from skewcover.skew import build_presentation

from conftest import golden_text, load_built, load_generated
import oracle_paper
from oracle_glambda import GLambda
from oracle_paper import (apply_morphism, recover_irreducible,
                          semi_dense_witness)
from oracle_tensor import loop_tensor_relations, oracle_pushdown_matrices

F = PrimeField(1009)


def _module(built, name):
    return built.modules[name]


# -- the closed forms against the independent tensor oracle -------------------

def _check_against_oracle(pres, M):
    res = pushdown_module(pres, M)
    mats = oracle_pushdown_matrices(pres, M)
    for i, ar in enumerate(pres.arrows):
        assert np.array_equal(res.rep.maps[i], mats[i]), ar.name


def test_pushdown_matches_tensor_oracle_fig5(fig5, fig5_pres, fig5_arq):
    for M in fig5_arq.modules[:8]:
        _check_against_oracle(fig5_pres, M)
    _check_against_oracle(fig5_pres, fig5_arq.modules[17])


def test_pushdown_matches_tensor_oracle_fig1(fig1, fig1_pres):
    _check_against_oracle(fig1_pres, _module(fig1, "M_fig3"))


def test_pushdown_matches_tensor_oracle_kronecker(kronecker, kron_pres):
    _check_against_oracle(kron_pres, _module(kronecker, "S2"))
    _check_against_oracle(kron_pres, _module(kronecker, "P1"))


# -- golden matrices of the worked example ------------------------------------

def test_figure_pushdown_bit_exact(fig1, fig1_pres):
    """The displayed block matrices of the worked pushdown, reproduced
    bit-exactly under the documented fiber ordering and the declared
    arrow-basis combination."""
    golden = json.loads(golden_text("fig4_pushdown.json"))
    M = _module(fig1, "M_fig3")
    res = pushdown_module(fig1_pres, M)
    qg = fig1_pres.qg
    name_to_idx = {v: i for i, v in enumerate(qg.vertices)}
    # vertex dimensions
    for fig_v, dim in golden["vertex_dims"].items():
        qi = name_to_idx[golden["vertex_map"][fig_v]]
        assert res.rep.dims[qi] == dim, fig_v
    # fiber order bookkeeping
    for qv_name, expect in golden["fiber_order"].items():
        got = [fig1.quiver.vertices[v] for v in res.fibers[qv_name]]
        assert got == expect
    half = F.inv(2)

    def coeff(c):
        if c == "half":
            return half
        if c == "-half":
            return (-half) % F.p
        return c % F.p

    for fig_arrow, combo in golden["arrow_combinations"].items():
        acc = None
        for c, name in combo:
            mat = res.rep.maps[qg.aindex[name]]
            term = F.smul(coeff(c), mat)
            acc = term if acc is None else F.add(acc, term)
        expected = F.mat(golden["matrices"][fig_arrow])
        assert np.array_equal(acc, expected), fig_arrow


def test_pushdown_dim_bookkeeping(fig5, fig5_pres, fig5_arq):
    ctx = fig5_pres.context
    n = fig5.group.n
    for M in fig5_arq.modules[:10]:
        res = pushdown_module(fig5_pres, M)
        expected = 0
        for qv in ctx.vertices:
            if ctx.is_full_orbit(qv.rep):
                expected += sum(M.dims[v] for v in ctx.action.vertex_orbit(qv.rep))
            else:
                expected += M.dims[qv.rep]
        assert res.rep.total_dim == expected
        # fiber sum identity per vertex
        for qi, qv in enumerate(ctx.vertices):
            fib = res.fibers[qv.name(fig5.quiver)]
            assert res.rep.dims[qi] == sum(M.dims[v] for v in fib)


def test_pushdown_zero(fig5_pres, fig5):
    Z = Representation(fig5.algebra, (0, 0, 0, 0), [None] * 4)
    res = pushdown_module(fig5_pres, Z)
    assert res.rep.is_zero()


# -- functoriality -------------------------------------------------------------

def test_pushdown_identity_and_composition(fig5, fig5_pres, fig5_arq):
    M = fig5_arq.modules[9]
    FM = pushdown_module(fig5_pres, M)
    Fid = pushdown_morphism(fig5_pres, identity_morphism(M), FM, FM)
    assert all(np.array_equal(b, F.eye(b.shape[0])) for b in Fid.blocks)
    N = fig5_arq.modules[4]
    H = hom_basis(M, N)
    if H.basis:
        f = H.basis[0]
        K = fig5_arq.modules[14]
        H2 = hom_basis(N, K)
        if H2.basis:
            g = H2.basis[0]
            lhs = pushdown_morphism(fig5_pres, g.compose(f))
            rhs = pushdown_morphism(fig5_pres, g).compose(
                pushdown_morphism(fig5_pres, f))
            assert all(np.array_equal(a, b)
                       for a, b in zip(lhs.blocks, rhs.blocks))


def test_pushdown_exactness_on_dimension(fig5, fig5_pres, fig5_arq):
    # short exact sequences push to short exact sequences: dims add and
    # the pushed maps keep full rank / zero composite
    from skewcover.ar import _check_exact
    for t, seq in list(fig5_arq.sequences.items())[:4]:
        FM = pushdown_module(fig5_pres, seq.left)
        FN = pushdown_module(fig5_pres, seq.middle)
        FT = pushdown_module(fig5_pres, seq.right)
        Fi = pushdown_morphism(fig5_pres, seq.incl, FM, FN)
        Fp = pushdown_morphism(fig5_pres, seq.proj, FN, FT)
        from skewcover.ar import AlmostSplitSequence
        _check_exact(AlmostSplitSequence(FM.rep, FN.rep, FT.rep, Fi, Fp))


# -- decomposition behavior -----------------------------------------------------

def test_stable_simple_splits(fig5, fig5_pres):
    S2 = _module(fig5, "S2")
    sd = decompose_pushdown(fig5_pres, S2)
    dims = sorted(s.rep.dims for _, s in sd.summands)
    assert dims == [(0, 0, 0, 1, 0), (0, 0, 1, 0, 0)]
    assert sd.support_partition["S'1"] == ["2"]


def test_unstable_pushdown_indecomposable(fig5, fig5_pres):
    N32 = _module(fig5, "N_3_2")
    FN = pushdown_module(fig5_pres, N32).rep
    assert is_indecomposable(FN)
    assert FN.dims == (0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        decompose_pushdown(fig5_pres, N32)


def test_example_53_decompositions(fig5, fig5_pres):
    M12 = _module(fig5, "M_1_2")
    sd = decompose_pushdown(fig5_pres, M12)
    assert sorted(s.rep.dims for _, s in sd.summands) == \
        [(0, 1, 0, 1, 0), (1, 0, 1, 0, 0)]
    M212 = _module(fig5, "M_2_1_2")
    sd2 = decompose_pushdown(fig5_pres, M212)
    assert sorted(s.rep.dims for _, s in sd2.summands) == \
        [(0, 1, 0, 2, 0), (1, 0, 2, 0, 0)]


def test_twist_orbit_structure(fig5, fig5_pres):
    """Summands of a stable pushdown form one dual-twist orbit."""
    sd = decompose_pushdown(fig5_pres, _module(fig5, "M_1_2"))
    chars = [chi for chi, _ in sd.summands]
    assert chars == fig5_pres.context.chars.characters


# -- the reverse functor --------------------------------------------------------

def test_G_lambda_of_pushdown_is_twist_sum(fig5, fig5_pres):
    act = fig5.action
    for name in ("S2", "N_3_2", "M_1_2"):
        M = _module(fig5, name)
        FM = pushdown_module(fig5_pres, M).rep
        back = restrict_G_lambda(fig5_pres, FM)
        expected, _, _ = direct_sum(
            fig5.algebra, [twist(act, g, M) for g in fig5.group.elements])
        assert back.total_dim == expected.total_dim
        assert is_isomorphic(back, expected)


def test_G_lambda_tensor_matches_loop_relations(fig5, fig5_pres):
    """The Kronecker-block relation rows span what the per-entry loop's
    rows span, so the quotient map of Z (x) N is the same matrix."""
    gl = GLambda(fig5_pres)
    Fp = fig5_pres.F
    for name in ("S2", "N_3_2", "M_1_2"):
        FM = pushdown_module(fig5_pres, _module(fig5, name)).rep
        for N in (FM, simple_module(fig5_pres.algebra, 4)):
            proj, ntot = gl._tensor(N)
            rows = row_space(Fp, loop_tensor_relations(gl, N))
            assert np.array_equal(proj, quotient_map(Fp, rows, gl.zdim * ntot))


def test_G_lambda_trivial_group(fig5):
    from skewcover.action import AbelianGroup, QuiverAction
    from skewcover.skew import build_presentation
    G1 = AbelianGroup((1,))
    act = QuiverAction(fig5.algebra, G1, [{}], [{}])
    pres = build_presentation(fig5.algebra, G1, act)
    M = _module(fig5, "M_2_1_2")
    FM = pushdown_module(pres, M).rep
    back = restrict_G_lambda(pres, FM)
    assert is_isomorphic(back, M)


def test_G_lambda_of_skew_simple_full_orbit(fig5, fig5_pres):
    """The simple at the full-orbit vertex pulls back to the orbit sum of
    the underlying simples."""
    S = simple_module(fig5_pres.algebra, 4)  # vertex 3_r0
    back = restrict_G_lambda(fig5_pres, S)
    assert back.dims == (0, 0, 1, 1)
    parts = decompose(back)
    assert sorted(p.rep.dims for p in parts) == [(0, 0, 0, 1), (0, 0, 1, 0)]



def _load(name):
    return load_built(name) if name.endswith(".skw") else load_generated(name)


@pytest.fixture(scope="module",
                params=["fig5.skw", "fig6.skw", "free_action_a3.skw",
                        "star3_1", "cover2_4"])
def knitted(request):
    """(presentation, knitted Lambda-indecomposables, knitted
    B-indecomposables) of one input."""
    b = _load(request.param)
    pres = build_presentation(b.algebra, b.group, b.action)
    return (pres, knit_ar_quiver(b.algebra).modules,
            knit_ar_quiver(pres.algebra).modules)


def test_G_lambda_is_adjoint_to_pushdown(knitted):
    """dim Hom(M, G N) = dim Hom(F M, N) and dim Hom(G N, M) =
    dim Hom(N, F M) over every pair of knitted indecomposables."""
    pres, lam, skew = knitted
    gl = pushdown.GLambda(pres)
    backs = [gl.apply(N) for N in skew]
    for M in lam:
        FM = pushdown_module(pres, M).rep
        for N, GN in zip(skew, backs):
            assert hom_basis(M, GN).dimension == hom_basis(FM, N).dimension
            assert hom_basis(GN, M).dimension == hom_basis(N, FM).dimension


def test_G_lambda_matches_tensor_oracle(knitted):
    """The pull-up against the tensor quotient: isomorphic G N for every
    knitted B-module, and equal per-vertex ranks of G f for the Hom-basis
    morphisms among the first eight."""
    pres, _, skew = knitted
    gl, oracle = pushdown.GLambda(pres), GLambda(pres)
    mats = [oracle.materialize(N) for N in skew]
    for N, (GN, _) in zip(skew, mats):
        assert is_isomorphic(gl.apply(N), GN)
    F = pres.F
    for i, N1 in enumerate(skew[:8]):
        for j, N2 in enumerate(skew[:8]):
            for f in hom_basis(N1, N2).basis:
                ours = apply_morphism(gl, f)
                theirs = oracle.apply_morphism(f, mats[i], mats[j])
                assert ([rank(F, b) for b in ours.blocks]
                        == [rank(F, b) for b in theirs.blocks])


@pytest.mark.parametrize("name", ["cover3_4", "star3_2"])
def test_G_lambda_of_pushed_projectives_at_scale(name):
    """A scale guard: G F P_v is the twist sum of P_v for every vertex.
    The tensor quotient took 3 s and 126 MiB for G F of the sum of the P_v
    of cover3_4 on a 2-core machine; the pull-up takes milliseconds."""
    b = _load(name)
    pres = build_presentation(b.algebra, b.group, b.action)
    gl = pushdown.GLambda(pres)
    for v in range(b.algebra.quiver.n_vertices):
        P = projective_module(b.algebra, v)
        back = gl.apply(pushdown_module(pres, P).rep)
        expected, _, _ = direct_sum(
            b.algebra, [twist(b.action, g, P) for g in b.group.elements])
        assert is_isomorphic(back, expected)

# -- semicovering reports --------------------------------------------------------

def test_semicovering_stable_pair(fig5, fig5_pres):
    S2 = _module(fig5, "S2")
    r = verify_semi_covering(fig5_pres, S2, S2)
    assert r.case == "G_MN = G" and r.matches and r.lhs_dim == 2


def test_semicovering_unstable_pair(fig5, fig5_pres):
    N32 = _module(fig5, "N_3_2")
    r = verify_semi_covering(fig5_pres, N32, N32)
    assert r.case == "G_M != G" and r.matches
    # dim End(F[3/2]) = dim End([3/2]) + dim Hom([4/2], [3/2])
    g = (1,)
    rhs = (hom_basis(N32, N32).dimension
           + hom_basis(twist(fig5.action, g, N32), N32).dimension)
    assert r.lhs_dim == rhs == 1


def test_kronecker_block_pattern(kronecker, kron_pres):
    """The cyclic zero-block pattern of the stable-pair Hom matrix."""
    S2 = _module(kronecker, "S2")
    P1 = _module(kronecker, "P1")
    r = verify_semi_covering(kron_pres, S2, P1, with_pattern=True)
    assert r.matches and r.case == "G_MN = G"
    assert r.lhs_dim == 6
    pat = np.array(r.block_pattern)
    assert pat.sum() == 6
    # zero blocks exactly at the cyclic complement positions
    zeros = {(i, j) for i in range(3) for j in range(3) if pat[i, j] == 0}
    nonzeros = {(i, j) for i in range(3) for j in range(3) if pat[i, j] == 1}
    assert len(zeros) == 3
    # each row and column has exactly one zero block
    assert sorted(i for i, _ in zeros) == [0, 1, 2]
    assert sorted(j for _, j in zeros) == [0, 1, 2]
    # the nonzero pattern is the union of the diagonal and one cyclic shift
    diag = {(i, i) for i in range(3)}
    assert diag <= nonzeros
    shift = nonzeros - diag
    js = {(j - i) % 3 for i, j in shift}
    assert len(js) == 1 and js != {0}


# -- gauges, semi-density, irreducible recovery ----------------------------------

def test_pushdown_twist_gauge_all(fig5, fig5_pres, fig5_arq):
    for M in fig5_arq.modules[:10]:
        for g in fig5.group.elements:
            gauge = pushdown_twist_gauge(fig5_pres, g, M)
            assert gauge.is_invertible()


def test_semi_dense_every_skew_indecomposable(fig5_pres, fig5_skew_arq):
    for N in fig5_skew_arq.modules[:10]:
        M, compl = semi_dense_witness(fig5_pres, N)
        FM = pushdown_module(fig5_pres, M).rep
        assert FM.total_dim == N.total_dim + sum(z.total_dim for z in compl)


def test_semi_dense_no_preimage_case(fig5, fig5_pres):
    """The skew-side module over the trivial-character pair has no pushdown
    preimage; its witness complement is the twisted companion."""
    maps = [None] * fig5_pres.qg.n_arrows
    maps[fig5_pres.qg.aindex["x0_a"]] = F.mat([[1]])
    N = Representation(fig5_pres.algebra, (1, 0, 1, 0, 0), maps)
    M, compl = semi_dense_witness(fig5_pres, N)
    assert len(compl) == 1 and compl[0].dims == (0, 1, 0, 1, 0)
    # no indecomposable over the base pushes onto N alone: its pushdown
    # partner always tags along, which is exactly the semi-dense statement
    assert M.dims == (1, 1, 0, 0)


def test_semi_dense_zero(fig5_pres):
    A = fig5_pres.context.algebra
    Z = Representation(A, (0,) * 4, [None] * 4)
    M, compl = semi_dense_witness(fig5_pres, Z)
    assert M.is_zero() and compl == []


def test_recover_irreducible_diagonal(fig5, fig5_pres, fig5_skew_arq):
    """The skew-side irreducible between dual-unstable ends pulls back to
    an irreducible over the base whose pushdown is the diagonal pair."""
    dual, dact = fig5_pres.dual_group_action()
    calc = fig5_skew_arq.calc
    mods = fig5_skew_arq.modules
    # skew side: simple at 2_r0 -> the [x0_a]-module (1,0,1,0,0): both
    # dual-unstable, mirroring the base irreducible S2 -> [1/2]... on the
    # skew side this is the mesh arrow out of the vertex-2_r0 simple
    i_s = next(i for i, m in enumerate(mods) if m.dims == (0, 0, 1, 0, 0))
    i_t = next(i for i, m in enumerate(mods)
               if m.dims == (1, 0, 1, 0, 0)
               and m.label() == "1,0,0,0,0|0,0,1,0,0")
    from skewcover.rep import irr_space
    d, reps = irr_space(calc, mods[i_s], mods[i_t])
    assert d == 1
    f = reps[0]
    M1, N1, f1 = recover_irreducible(fig5_pres, f, dact)
    assert not f1.is_zero()
    # round trip: the pushdown of the recovered morphism is block diagonal
    # with nonzero diagonal blocks between the twist summands
    Ff1 = pushdown_morphism(fig5_pres, f1)
    assert not Ff1.is_zero()
    sdM = decompose(pushdown_module(fig5_pres, M1).rep)
    sdN = decompose(pushdown_module(fig5_pres, N1).rep)
    nonzero = 0
    for sM in sdM:
        for sN in sdN:
            blk = sN.projection.compose(Ff1).compose(sM.inclusion)
            if not blk.is_zero():
                nonzero += 1
    assert nonzero == len(sdM) == len(sdN) == fig5.group.n


def test_recover_requires_proper_stabilizers(fig5, fig5_pres, fig5_skew_arq,
                                             monkeypatch):
    dual, dact = fig5_pres.dual_group_action()
    mods = fig5_skew_arq.modules
    calc = fig5_skew_arq.calc
    # ends over the full-orbit fiber are dual-stable: recovery must refuse
    i_s = next(i for i, m in enumerate(mods) if m.dims == (0, 0, 1, 1, 1))
    i_t = next(i for i, m in enumerate(mods) if m.dims == (1, 0, 1, 1, 1))
    from skewcover.rep import irr_space
    d, reps = irr_space(calc, mods[i_s], mods[i_t])
    # the refusal comes before any G_lambda is built
    built = []

    class Counting(pushdown.GLambda):
        def __init__(self, pres):
            built.append(pres)
            super().__init__(pres)

    monkeypatch.setattr(oracle_paper, "GLambda", Counting)
    if d:
        with pytest.raises(ValueError):
            recover_irreducible(fig5_pres, reps[0], dact)
    assert built == []
