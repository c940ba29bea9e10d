import numpy as np
import pytest

from conftest import load_built, load_generated, workload_generated_keys
from oracle_dense import action_matrix, first_non_multiplicative
from oracle_paper import generated_by
from skewcover.field import PrimeField
from skewcover.quiver import BoundAlgebra, Quiver, RelationElement, make_path
from skewcover.action import (AbelianGroup, QuiverAction, arrow_character,
                              character_group, orbits_stabilizers,
                              validate_action)

F = PrimeField(1009)


def test_group_arithmetic():
    G = AbelianGroup((2, 3))
    assert G.n == 6 and G.exponent == 6
    e = G.identity()
    for g in G.elements:
        assert G.mul(g, G.inv(g)) == e
    assert G.elements == sorted(G.elements)


def test_subgroup_generation():
    G = AbelianGroup((4,))
    sub = generated_by(G, [(2,)])
    assert sub == [(0,), (2,)]


def test_character_group_z2():
    G = AbelianGroup((2,))
    ch = character_group(F, G)
    assert len(ch.characters) == 2
    sgn = ch.characters[1]
    assert ch.value(sgn, (1,)) == F.p - 1
    assert ch.value(ch.trivial(), (1,)) == 1


def test_character_group_z3_cube_roots():
    G = AbelianGroup((3,))
    ch = character_group(F, G)
    assert len(ch.characters) == 3
    vals = {ch.value(c, (1,)) for c in ch.characters}
    assert all(pow(v, 3, F.p) == 1 for v in vals)
    assert len(vals) == 3


def test_character_group_klein():
    G = AbelianGroup((2, 2))
    ch = character_group(F, G)
    assert len(ch.characters) == 4
    # every square is trivial and the product table closes
    for a in ch.characters:
        assert ch.mul(a, a) == ch.trivial()
        for b in ch.characters:
            assert ch.mul(a, b) in ch.characters


def test_multiplicativity_of_characters():
    G = AbelianGroup((2, 3))
    ch = character_group(PrimeField.for_group(6), G)
    for chi in ch.characters:
        for g in G.elements:
            for h in G.elements:
                lhs = ch.value(chi, G.mul(g, h))
                rhs = ch.value(chi, g) * ch.value(chi, h) % ch.F.p
                assert lhs == rhs


def test_field_incompatibility():
    G = AbelianGroup((3,))
    with pytest.raises(ValueError):
        character_group(PrimeField(5), G)  # 5 - 1 not divisible by 3


def test_trivial_action_valid(fig5):
    G1 = AbelianGroup((1,))
    act = QuiverAction(fig5.algebra, G1, [{}], [{}])
    assert validate_action(fig5.algebra, G1, act).valid
    od = orbits_stabilizers(act)
    assert len(od.orbits) == fig5.quiver.n_vertices
    assert not od.full_orbit_reps


def test_fig5_action_valid(fig5):
    rep = validate_action(fig5.algebra, fig5.group, fig5.action)
    assert rep.valid, str(rep)


def test_fig5_orbit_data(fig5):
    od = orbits_stabilizers(fig5.action)
    names = fig5.quiver.vertices
    assert [[names[v] for v in o] for o in od.orbits] == [["1"], ["2"], ["3", "4"]]
    assert [names[r] for r in od.representatives] == ["1", "2", "3"]
    assert [names[r] for r in od.full_orbit_reps] == ["3"]
    assert sorted(names[r] for r in od.fixed_reps) == ["1", "2"]
    for orbit, r in zip(od.orbits, od.representatives):
        assert len(orbit) * len(od.stabilizers[r]) == fig5.group.n


def test_fig1_orbit_data(fig1):
    od = orbits_stabilizers(fig1.action)
    names = fig1.quiver.vertices
    orbs = [[names[v] for v in o] for o in od.orbits]
    assert orbs == [["v1", "w1"], ["v2", "w2"], ["v3"], ["v4"]]
    assert sorted(names[r] for r in od.full_orbit_reps) == ["v1", "v2"]
    assert sorted(names[r] for r in od.fixed_reps) == ["v3", "v4"]


def test_invalid_swap_rejected(fig5):
    # exchanging vertices 2 and 3 does not preserve the arrow structure
    alg, G = fig5.algebra, fig5.group
    q = fig5.quiver
    bad = QuiverAction(alg, G, [{1: 2, 2: 1}], [{}])
    rep = validate_action(alg, G, bad)
    assert not rep.valid
    assert any(i.check == "arrow-endpoints" for i in rep.issues)


def test_relation_preservation_detected():
    # same quiver as fig5 but with an asymmetric relation set: swapping the
    # whiskers no longer preserves the ideal
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "1"), ("c", "3", "2"), ("d", "4", "2")])
    A = q.aindex
    def P(*names):
        return make_path(q, tuple(A[n] for n in names))
    rel = [RelationElement(((1, P("a", "b", "a")),)),
           RelationElement(((1, P("b", "a", "b")),)),
           RelationElement(((1, P("b", "c")),))]
    alg = BoundAlgebra(F, q, rel)
    G = AbelianGroup((2,))
    act = QuiverAction(alg, G, [{2: 3, 3: 2}],
                       [{A["c"]: (1, A["d"]), A["d"]: (1, A["c"])}])
    rep = validate_action(alg, G, act)
    assert not rep.valid
    assert any(i.check == "relations-preserved" for i in rep.issues)


def test_generator_order_checked(fig5):
    alg, q = fig5.algebra, fig5.quiver
    A = q.aindex
    G = AbelianGroup((2,))
    # c -> d but d -> -c: the square scales d by -1, so order != 2
    act = QuiverAction(alg, G, [{2: 3, 3: 2}],
                       [{A["c"]: (1, A["d"]), A["d"]: (F.p - 1, A["c"])}])
    rep = validate_action(alg, G, act)
    assert not rep.valid
    assert any(i.check == "generator-order" for i in rep.issues)


def test_mixed_stabilizer_rejected():
    # Z4 rotating a 4-cycle in 2-steps fixes no vertex but has stabilizer Z2
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")])
    A = q.aindex
    def P(*names):
        return make_path(q, tuple(A[n] for n in names))
    rel = [RelationElement(((1, P("b", "a")),)), RelationElement(((1, P("c", "b")),)),
           RelationElement(((1, P("d", "c")),)), RelationElement(((1, P("a", "d")),))]
    alg = BoundAlgebra(F, q, rel)
    G = AbelianGroup((4,))
    act = QuiverAction(alg, G, [{0: 2, 2: 0, 1: 3, 3: 1}],
                       [{A["a"]: (1, A["c"]), A["c"]: (1, A["a"]),
                         A["b"]: (1, A["d"]), A["d"]: (1, A["b"])}])
    rep = validate_action(alg, G, act)
    assert not rep.valid
    assert any(i.check == "stabilizer-trivial-or-full" for i in rep.issues)


def test_arrow_character_trivial(fig5):
    ch = character_group(F, fig5.group)
    chi = arrow_character(fig5.action, ch, fig5.quiver.aindex["a"])
    assert chi == ch.trivial()


def test_arrow_character_sign():
    q = Quiver(["1"], [("f", "1", "1")])
    ff = make_path(q, (0, 0))
    alg = BoundAlgebra(F, q, [RelationElement(((1, ff),))])
    G = AbelianGroup((2,))
    act = QuiverAction(alg, G, [{}], [{0: (F.p - 1, 0)}])
    assert validate_action(alg, G, act).valid
    chi = arrow_character(act, character_group(F, G), 0)
    assert chi.exponents == (1,)


def test_arrow_character_kronecker(kronecker):
    ch = character_group(F, kronecker.group)
    q = kronecker.quiver
    chi_al = arrow_character(kronecker.action, ch, q.aindex["al"])
    chi_be = arrow_character(kronecker.action, ch, q.aindex["be"])
    assert chi_al == ch.trivial()
    assert ch.value(chi_be, (1,)) == 374


def test_non_eigen_arrow_rejected(fig1):
    # the fig1 double arrows are swapped, not scaled, by the full stabilizer
    ch = character_group(F, fig1.group)
    with pytest.raises(ValueError):
        arrow_character(fig1.action, ch, fig1.quiver.aindex["a1"],
                        subgroup=fig1.group.elements)


def test_path_action_preserves_degree(fig5):
    act = fig5.action
    for g in fig5.group.elements:
        for w in fig5.algebra.basis:
            c, gw = act.path(g, w)
            assert gw.length() == w.length()
            assert c != 0


def test_arrow_character_dual_side(fig2):
    """Eigen arrows over the doubly-fixed pair carry the two characters of
    the involution (the worked four-case example, eigen form)."""
    ch = character_group(F, fig2.group)
    q = fig2.quiver
    chi_a = arrow_character(fig2.action, ch, q.aindex["x0_a1"])
    chi_b = arrow_character(fig2.action, ch, q.aindex["x1_b2"])
    assert chi_a == ch.trivial()
    assert ch.value(chi_b, (1,)) == F.p - 1


@pytest.mark.parametrize("key", [
    "fig1.skw", "fig2.skw", "fig5.skw", "fig6.skw", "free_action_a3.skw",
    "kronecker_z3.skw", *workload_generated_keys()])
def test_sparse_entries_equal_dense_oracle(key):
    built = load_built(key) if key.endswith(".skw") else load_generated(key)
    act = built.action
    x = np.arange(1, built.algebra.dim + 1)
    for g in built.group.elements:
        M = action_matrix(act, g)
        assert np.array_equal(act.matrix(g), M)
        assert np.array_equal(act.apply(g, x), M @ x % F.p)


@pytest.mark.parametrize("name,column,kind", [
    ("fig5.skw", 3, "scale"), ("fig1.skw", 7, "scale"),
    ("fig1.skw", 12, "extra"), ("kronecker_z3.skw", 0, "extra")])
def test_corrupted_matrix_gives_first_witness(name, column, kind):
    # a fresh copy: the session-scoped fixtures must keep their valid action
    built = load_built(name)
    alg, G, act = built.algebra, built.group, built.action
    g = G.elements[-1]
    gi = G.eindex[g]
    M = action_matrix(act, g)
    gs, rows, cols, vals = act.entries
    if kind == "scale":
        M[:, column] = 2 * M[:, column] % F.p
        vals = np.where((gs == gi) & (cols == column), 2 * vals % F.p, vals)
    else:
        M[(column + 1) % alg.dim, column] += 1
        gs, rows, cols, vals = (np.append(a, t) for a, t in zip(
            (gs, rows, cols, vals), (gi, (column + 1) % alg.dim, column, 1)))
    act.entries = (gs, rows, cols, vals)
    assert np.array_equal(act.matrix(g), M % F.p)
    expected = first_non_multiplicative(alg, G, act, {g: M})
    assert expected is not None and expected[0] == g
    rep = validate_action(alg, G, act)
    assert [(i.check, i.witness) for i in rep.issues] == [
        ("automorphism-multiplicative",
         f"g={g}, basis ({expected[1]},{expected[2]})")]


def test_multiplicativity_oracle_agrees_on_valid_actions(fig1, kronecker):
    for built in (fig1, kronecker):
        assert first_non_multiplicative(built.algebra, built.group,
                                        built.action) is None
        assert validate_action(built.algebra, built.group, built.action).valid
