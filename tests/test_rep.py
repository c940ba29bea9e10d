import json

import numpy as np
import pytest

from skewcover.field import PrimeField
from skewcover.quiver import BoundAlgebra, Quiver
from skewcover.rep import (NonSplitEndError, RadicalCalculator, RepMorphism,
                           Representation, decompose, end_algebra, hom_basis,
                           irr_space, is_indecomposable, is_isomorphic,
                           isomorphism, module_stabilizer, twist)
from skewcover.ar import direct_sum, simple_module
from skewcover.cli import main

from conftest import golden_text
from oracle_dense import check_associativity
from oracle_paper import inverse, rad_power_basis

F = PrimeField(1009)


@pytest.fixture(scope="module")
def a2():
    return BoundAlgebra(F, Quiver(["1", "2"], [("a", "1", "2")]), [])


def test_hom_end_simple(a2):
    S1 = simple_module(a2, 0)
    assert hom_basis(S1, S1).dimension == 1


def test_hom_distinct_simples_zero(a2):
    S1, S2 = simple_module(a2, 0), simple_module(a2, 1)
    assert hom_basis(S1, S2).dimension == 0
    assert hom_basis(S2, S1).dimension == 0


def test_hom_table_fig5_golden(fig5_arq):
    """Every ordered pair of fig5 indecomposables against the frozen table
    (computed once by this same solver and pinned)."""
    golden = json.loads(golden_text("fig5_hom_table.json"))
    labels = [m.label() for m in fig5_arq.modules]
    assert sorted(labels) == sorted(golden["labels"])
    table = golden["hom_dims"]
    seen = 0
    for i, M in enumerate(fig5_arq.modules):
        for j, N in enumerate(fig5_arq.modules):
            d = hom_basis(M, N).dimension
            key = f"{labels[i]} -> {labels[j]}"
            assert d == table.get(key, 0), key
            if d:
                seen += 1
    assert seen == len(table)


def test_hom_dim_conjugation_invariant(fig5_arq):
    """Basis changes of either argument leave hom dimensions unchanged."""
    rng = np.random.RandomState(5)
    M = fig5_arq.modules[17]
    N = fig5_arq.modules[10]
    base = hom_basis(M, N).dimension

    def conjugate(R):
        mats = []
        for d in R.dims:
            while True:
                T = F.mat(rng.randint(0, F.p, (d, d)))
                if d == 0 or inverse(F, T) is not None:
                    break
            mats.append(T)
        maps = []
        for a, arr in enumerate(R.algebra.quiver.arrows):
            s, t = arr.source, arr.target
            Ti = inverse(F, mats[s]) if R.dims[s] else F.zeros(0, 0)
            maps.append(F.mul(mats[t], F.mul(R.maps[a], Ti)))
        return Representation(R.algebra, R.dims, maps)

    for _ in range(3):
        Mc, Nc = conjugate(M), conjugate(N)
        assert hom_basis(Mc, Nc).dimension == base
        assert is_isomorphic(Mc, M)


def test_twist_identity(fig5, fig5_arq):
    e = fig5.group.identity()
    for M in fig5_arq.modules[:6]:
        tM = twist(fig5.action, e, M)
        assert tM.dims == M.dims
        assert all(np.array_equal(a, b) for a, b in zip(tM.maps, M.maps))


def test_twist_swaps_whisker_modules(fig5):
    alg = fig5.algebra
    N32 = Representation(alg, (0, 1, 1, 0), [None, None, F.mat([[1]]), None])
    g = (1,)
    tN = twist(fig5.action, g, N32)
    assert tN.dims == (0, 1, 0, 1)
    assert not is_isomorphic(tN, N32)
    # double twist is the identity
    ttN = twist(fig5.action, g, tN)
    assert is_isomorphic(ttN, N32)


def test_twist_composition_law(fig5):
    # g(hM) = (gh)M on the nose for the cyclic generator
    alg = fig5.algebra
    M = Representation(alg, (1, 2, 1, 1),
                       [F.mat([[1], [0]]), F.zeros(1, 2),
                        F.mat([[0], [1]]), F.mat([[1], [1]])])
    g = (1,)
    lhs = twist(fig5.action, g, twist(fig5.action, g, M))
    rhs = twist(fig5.action, fig5.group.mul(g, g), M)
    assert lhs.dims == rhs.dims
    assert all(np.array_equal(a, b) for a, b in zip(lhs.maps, rhs.maps))


def test_twist_hom_invariance(fig5, fig5_arq):
    act = fig5.action
    M, N = fig5_arq.modules[4], fig5_arq.modules[8]
    for g in fig5.group.elements:
        assert (hom_basis(twist(act, g, M), twist(act, g, N)).dimension
                == hom_basis(M, N).dimension)


def test_module_stabilizers(fig5, fig5_arq):
    act = fig5.action
    S2 = simple_module(fig5.algebra, 1)
    assert len(module_stabilizer(act, S2)) == 2
    N32 = Representation(fig5.algebra, (0, 1, 1, 0),
                         [None, None, F.mat([[1]]), None])
    assert module_stabilizer(act, N32) == [fig5.group.identity()]


def test_indecomposability(a2, fig5_arq):
    S1 = simple_module(a2, 0)
    assert is_indecomposable(S1)
    for M in fig5_arq.modules:
        assert is_indecomposable(M)
    S2 = simple_module(a2, 1)
    both, _, _ = direct_sum(a2, [S1, S2])
    assert not is_indecomposable(both)
    with pytest.raises(ValueError):
        is_indecomposable(Representation(a2, (0, 0), [None]))


def test_decompose_trivial_and_sum(a2):
    S1, S2 = simple_module(a2, 0), simple_module(a2, 1)
    assert len(decompose(S1)) == 1
    both, _, _ = direct_sum(a2, [S1, S2])
    parts = decompose(both)
    assert sorted(p.rep.dims for p in parts) == [(0, 1), (1, 0)]


def test_decompose_witnesses(fig5, fig5_arq):
    alg = fig5.algebra
    M = fig5_arq.modules[10]
    N = fig5_arq.modules[3]
    total, _, _ = direct_sum(alg, [M, N, N])
    parts = decompose(total)
    assert len(parts) == 3
    assert sum(p.rep.total_dim for p in parts) == total.total_dim
    # witnesses: projection . inclusion = identity on each summand
    for p in parts:
        comp = p.projection.compose(p.inclusion)
        for b in comp.blocks:
            assert np.array_equal(b, F.eye(b.shape[0]))
    # the three summands match {M, N, N} up to isomorphism
    matched = sorted(p.rep.dims for p in parts)
    assert matched == sorted([M.dims, N.dims, N.dims])


def test_decompose_idempotent_on_summands(fig5_arq):
    for M in fig5_arq.modules[:8]:
        parts = decompose(M)
        assert len(parts) == 1
        assert parts[0].rep is M


def test_isomorphism_witness(fig5_arq):
    M = fig5_arq.modules[12]
    u = isomorphism(M, M)
    assert u is not None and u.is_invertible()
    for i, M in enumerate(fig5_arq.modules):
        for j, N in enumerate(fig5_arq.modules):
            if i != j:
                assert not is_isomorphic(M, N)


def test_end_algebra_of_projective(fig5):
    # End of an indecomposable projective is local: dim End - dim rad = 1
    from skewcover.ar import projective_module
    from skewcover.field import algebra_radical
    P1 = projective_module(fig5.algebra, 0)
    E, _ = end_algebra(P1)
    radb = algebra_radical(E)
    assert E.dim - radb.shape[0] == 1
    assert check_associativity(E)


# -- radical powers -----------------------------------------------------------

def test_rad_end_simple_zero(a2):
    calc = RadicalCalculator([simple_module(a2, 0)])
    assert calc.rad_dim(0, 0, 1) == 0


def test_a2_radical_chain(a2):
    S1, S2 = simple_module(a2, 0), simple_module(a2, 1)
    P1 = Representation(a2, (1, 1), [F.mat([[1]])])
    calc = RadicalCalculator([S1, S2, P1])
    assert calc.rad_dim(1, 2, 1) == 1      # S2 -> P1
    assert calc.rad_dim(2, 0, 1) == 1      # P1 -> S1
    assert calc.rad_dim(1, 0, 1) == 0      # S2 -> S1: no homs at all
    assert calc.rad_dim(1, 2, 2) == 0
    assert calc.all_zero_at(2)


def test_fig5_irreducible_dims(fig5_arq):
    calc = fig5_arq.calc
    mods = fig5_arq.modules
    # the mesh arrow S2 -> [1/2] has irr dimension 1
    i2 = next(i for i, m in enumerate(mods) if m.dims == (0, 1, 0, 0))
    i12 = next(i for i, m in enumerate(mods)
               if m.dims == (1, 1, 0, 0) and m.label() == "1,0,0,0|0,1,0,0")
    d, reps = irr_space(calc, mods[i2], mods[i12])
    assert d == 1 and len(reps) == 1
    # non-neighbors: S3 and S4 are unrelated
    i3 = next(i for i, m in enumerate(mods) if m.dims == (0, 0, 1, 0))
    i4 = next(i for i, m in enumerate(mods) if m.dims == (0, 0, 0, 1))
    d, _ = irr_space(calc, mods[i3], mods[i4])
    assert d == 0
    # every AR-quiver arrow has multiplicity 1 here
    assert all(mult == 1 for mult in fig5_arq.arrows.values())


def test_rad_square_membership(fig5_arq):
    """A composite of two mesh arrows lies in rad^2 minus rad^3."""
    calc = fig5_arq.calc
    mods = fig5_arq.modules
    i2 = next(i for i, m in enumerate(mods) if m.dims == (0, 1, 0, 0))
    i12 = next(i for i, m in enumerate(mods)
               if m.dims == (1, 1, 0, 0) and m.label() == "1,0,0,0|0,1,0,0")
    i212 = next(i for i, m in enumerate(mods) if m.dims == (1, 2, 0, 0))
    _, (f,) = irr_space(calc, mods[i2], mods[i12])
    _, (g,) = irr_space(calc, mods[i12], mods[i212])
    comp = g.compose(f)
    assert not comp.is_zero()
    assert calc.membership_level(i2, i212, comp) == 2


def test_rad_powers_via_block_criterion(fig5_arq):
    """A matrix morphism into an indecomposable is exactly as deep as its
    deepest-surviving block (the decomposable-source criterion)."""
    calc = fig5_arq.calc
    mods = fig5_arq.modules
    alg = fig5_arq.algebra
    i2 = next(i for i, m in enumerate(mods) if m.dims == (0, 1, 0, 0))
    i12 = next(i for i, m in enumerate(mods)
               if m.dims == (1, 1, 0, 0) and m.label() == "1,0,0,0|0,1,0,0")
    i212 = next(i for i, m in enumerate(mods) if m.dims == (1, 2, 0, 0))
    _, (f,) = irr_space(calc, mods[i2], mods[i12])        # level 1
    _, (g,) = irr_space(calc, mods[i12], mods[i212])
    comp = g.compose(f)                                   # level 2 into i212
    _, (h,) = irr_space(calc, mods[i12], mods[i212])
    # block morphism (comp, h): S2 + [1/2] -> [2/1/2]
    total, incls, projs = direct_sum(alg, [mods[i2], mods[i12]])
    blocks = [np.concatenate([comp.blocks[v], h.blocks[v]], axis=1) % F.p
              for v in range(alg.quiver.n_vertices)]
    fsum = RepMorphism(total, mods[i212], blocks)
    assert fsum.is_valid()
    # componentwise: min level of the blocks = 1
    lvl_blocks = [calc.membership_level(i2, i212, comp),
                  calc.membership_level(i12, i212, h)]
    assert min(lvl_blocks) == 1 and max(lvl_blocks) == 2


def test_rad_power_basis_and_exposed_reps(fig5_arq):
    calc = fig5_arq.calc
    mods = fig5_arq.modules
    i2 = next(i for i, m in enumerate(mods) if m.dims == (0, 1, 0, 0))
    i212 = next(i for i, m in enumerate(mods) if m.dims == (1, 2, 0, 0))
    basis2 = rad_power_basis(calc, mods[i2], mods[i212], 2)
    basis3 = rad_power_basis(calc, mods[i2], mods[i212], 3)
    assert len(basis2) >= len(basis3)
    for f in basis2:
        assert f.is_valid()


def test_non_split_endomorphism_reported(tmp_path, capsys):
    """A regular Kronecker module whose endomorphism ring is the quadratic
    field extension: decomposition reports it instead of guessing, naming
    the module and the degree, and the CLI's error line carries that."""
    kq = Quiver(["1", "2"], [("al", "1", "2"), ("be", "1", "2")])
    alg = BoundAlgebra(F, kq, [])
    c = next(c for c in range(2, F.p) if pow(c, (F.p - 1) // 2, F.p) == F.p - 1)
    companion = F.mat([[0, c], [1, 0]])
    M = Representation(alg, (2, 2), [F.eye(2), companion])
    assert not is_indecomposable(M)  # the split-local test is negative...
    with pytest.raises(NonSplitEndError) as exc:
        decompose(M)                 # ...and decomposition says why
    message = str(exc.value)
    assert M.label() == "2,0|0,2"
    assert message == (
        "the module with dimension vector (2, 2) and Loewy layers 2,0|0,2 "
        "is indecomposable over F_1009 but not absolutely: End/rad is the "
        "field of order 1009^2, of degree 2")
    path = tmp_path / "regular_kronecker.skw"
    path.write_text(
        "field p = 1009\nvertex 1\nvertex 2\narrow al: 1 -> 2\n"
        "arrow be: 1 -> 2\ngroup Z1\nmodule R {\n  dim 1 = 2\n  dim 2 = 2\n"
        f"  map al = [[1, 0], [0, 1]]\n  map be = [[0, {c}], [1, 0]]\n}}\n")
    assert main(["pushdown", str(path), "--module", "R"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
