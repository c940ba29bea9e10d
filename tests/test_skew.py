import json

import numpy as np
import pytest

from skewcover.field import PrimeField
from skewcover.quiver import (BoundAlgebra, PathWord, Quiver, RelationElement,
                              make_path)
from skewcover.action import AbelianGroup, QuiverAction
from skewcover.skew import (QGVertex, SkewAlgebra, SkewPresentation,
                            build_presentation)
from skewcover.inputfmt import build_input, parse_input, serialize_presentation
from skewcover.isosearch import find_algebra_isomorphism, roots_of_unity

from conftest import golden_text, load_built
from oracle_dense import loop_check_idempotents
from oracle_paper import arrow_space_dim, functor_F_arrow, functor_F_vertex

F = PrimeField(1009)


def test_skew_dimension_and_inclusion(fig5):
    S = SkewAlgebra(fig5.algebra, fig5.group, fig5.action)
    assert S.dim == fig5.algebra.dim * fig5.group.n
    e = fig5.algebra.idempotent(0)
    inc = S.include(e)
    assert np.array_equal(S.multiply(inc, inc), inc)
    # algebra map: includes multiply to includes
    x = fig5.algebra.unit_vector(fig5.algebra.basis[5])
    y = fig5.algebra.unit_vector(fig5.algebra.basis[6])
    lhs = S.multiply(S.include(x), S.include(y))
    assert np.array_equal(lhs, S.include(fig5.algebra.multiply(x, y)))


def test_skew_multiplication_twists(fig5):
    # (b (x) e)(c (x) g): the group element acts before concatenation
    alg, q = fig5.algebra, fig5.quiver
    S = SkewAlgebra(alg, fig5.group, fig5.action)
    g = (1,)
    b = alg.unit_vector(alg.basis[alg.bindex[make_path(q, (q.aindex["b"],))]])
    c = alg.unit_vector(alg.basis[alg.bindex[make_path(q, (q.aindex["c"],))]])
    out = S.multiply(S.group_element(b, g), S.include(c))
    # g(c) = d, so the product is (b d) (x) g = 0 by the relations
    assert not np.any(out)
    out2 = S.multiply(S.include(b), S.group_element(c, g))
    # b (x) e times c (x) g = bc (x) g = 0
    assert not np.any(out2)
    a = alg.unit_vector(alg.basis[alg.bindex[make_path(q, (q.aindex["a"],))]])
    out3 = S.multiply(S.group_element(a, g), S.include(b))
    # a (x) g times b (x) e = a g(b) (x) g = ab (x) g, nonzero
    assert np.any(out3)


def test_skew_associativity_sampled(fig5):
    S = SkewAlgebra(fig5.algebra, fig5.group, fig5.action)
    rng = np.random.RandomState(11)
    idx = rng.randint(0, S.dim, (6, 3))
    for i, j, k in idx:
        x = np.zeros(S.dim, dtype=np.int64); x[i] = 1
        y = np.zeros(S.dim, dtype=np.int64); y[j] = 1
        z = np.zeros(S.dim, dtype=np.int64); z[k] = 1
        lhs = S.multiply(S.multiply(x, y), z)
        rhs = S.multiply(x, S.multiply(y, z))
        assert np.array_equal(lhs, rhs)


def test_context_vertices_fig5(fig5, fig5_pres):
    ctx = fig5_pres.context
    names = [v.name(fig5.quiver) for v in ctx.vertices]
    assert names == ["1_r0", "1_r1", "2_r0", "2_r1", "3_r0"]
    total = np.zeros(ctx.skew.dim, dtype=np.int64)
    for e in ctx.idempotents.values():
        total = (total + e) % F.p
    assert np.array_equal(total, ctx.e_bar)


def test_context_vertices_fig1(fig1, fig1_pres):
    assert fig1_pres.qg.n_vertices == 6
    ctx = fig1_pres.context
    od = ctx.orbit_data
    # 2 full-orbit reps with one character, 2 fixed with two characters
    assert len(od.full_orbit_reps) == 2 and len(od.fixed_reps) == 2


def test_trivial_group_context(fig5):
    G1 = AbelianGroup((1,))
    act = QuiverAction(fig5.algebra, G1, [{}], [{}])
    pres = build_presentation(fig5.algebra, G1, act)
    assert pres.qg.n_vertices == fig5.quiver.n_vertices
    assert pres.qg.n_arrows == fig5.quiver.n_arrows
    assert pres.basic_dim == fig5.algebra.dim
    # relations ideals coincide: each original relation maps to zero
    for r in fig5.relations:
        mapped = {}
        for c, w in r.terms:
            bw = PathWord(w.vertex, w.arrows)
            nf = pres.algebra.nf.get(bw, {})
            for k, ck in nf.items():
                mapped[k] = (mapped.get(k, 0) + c * ck) % F.p
        assert all(v == 0 for v in mapped.values())


def test_fig5_arrow_count_and_cases(fig5_pres):
    assert fig5_pres.qg.n_arrows == 6
    cases = sorted(ar.case for ar in fig5_pres.arrows)
    assert cases == [2, 2, 4, 4, 4, 4]


def test_fig1_arrow_count_and_cases(fig1_pres):
    assert fig1_pres.qg.n_arrows == 6
    cases = sorted(ar.case for ar in fig1_pres.arrows)
    assert cases == [1, 1, 2, 2, 4, 4]


def test_basic_dims(fig5_pres, fig1_pres):
    assert fig5_pres.basic_dim == 15
    assert fig1_pres.basic_dim == 18


def _ideal_equal_on_same_quiver(algA, rels_mapped, algB):
    """Both relation sets on one quiver generate equal ideals: mutual
    normal-form vanishing plus equal quotient dimensions."""
    if algA.dim != algB.dim:
        return False
    for r in algB.relations:
        vec = {}
        for c, w in r.terms:
            nf = algA.nf.get(w)
            if nf is None:
                return False
            for k, ck in nf.items():
                vec[k] = (vec.get(k, 0) + c * ck) % algA.F.p
        if any(v % algA.F.p for v in vec.values()):
            return False
    return True


def test_fig5_relations_match_figure(fig5_pres):
    """Criterion-level: the computed relation ideal equals the transcribed
    five-vertex figure ideal under the declared dictionary."""
    match = json.loads(golden_text("fig6_match.json"))
    qg = fig5_pres.qg
    # build the figure's relations as relation elements on Q_G
    def mapped_path(names):
        idx = []
        for nm in names:
            combos = match["arrow_map"][nm]
            assert len(combos) == 1 and combos[0][0] == 1
            idx.append(qg.aindex[combos[0][1]])
        return make_path(qg, tuple(idx))
    fig_rels = [RelationElement(tuple((c, mapped_path(p)) for c, p in terms))
                for terms in match["figure_relations"]]
    fig_alg = BoundAlgebra(F, qg, fig_rels, fig5_pres.length_bound)
    assert fig_alg.dim == fig5_pres.algebra.dim == 15
    assert _ideal_equal_on_same_quiver(fig5_pres.algebra, None, fig_alg)
    assert _ideal_equal_on_same_quiver(fig_alg, None, fig5_pres.algebra)
    # endpoints agree through the vertex dictionary
    for name, s, t in match["figure_arrows"]:
        target = match["arrow_map"][name][0][1]
        ar = qg.arrows[qg.aindex[target]]
        assert qg.vertices[ar.source] == match["vertex_map"][s]
        assert qg.vertices[ar.target] == match["vertex_map"][t]


def test_fig1_relations_match_figure(fig1_pres):
    """Criterion-level: the double-arrow figure ideal, transported through
    the declared combinations, is the computed ideal."""
    match = json.loads(golden_text("fig2_match.json"))
    qg = fig1_pres.qg
    alg = fig1_pres.algebra
    # the figure algebra on its own quiver has the expected dimension
    figq = Quiver(match["figure_vertices"],
                  [tuple(a) for a in match["figure_arrows"]])
    fig_rels = [
        RelationElement(tuple(
            (c, make_path(figq, tuple(figq.aindex[nm] for nm in p)))
            for c, p in terms))
        for terms in match["figure_relations"]]
    fig_alg = BoundAlgebra(F, figq, fig_rels)
    assert fig_alg.dim == alg.dim == 18
    # combination matrix on the double arrow must be invertible
    combo = np.array([[c for c, _ in match["arrow_map"]["al"]],
                      [c for c, _ in match["arrow_map"]["be"]]]) % F.p
    assert (int(combo[0, 0]) * int(combo[1, 1])
            - int(combo[0, 1]) * int(combo[1, 0])) % F.p != 0
    # transported figure relations vanish in the computed algebra
    for terms in match["figure_relations"]:
        acc = {}
        for c, names in terms:
            expansions = [[(1, [])]]
            cur = [(c, [])]
            for nm in reversed(names):  # rightmost applied first
                nxt = []
                for coeff, arrows in cur:
                    for c2, target in match["arrow_map"][nm]:
                        nxt.append((coeff * c2 % F.p,
                                    [qg.aindex[target]] + arrows))
                cur = nxt
            for coeff, arrows in cur:
                w = make_path(qg, tuple(arrows))
                nf = alg.nf.get(w)
                assert nf is not None
                for k, ck in nf.items():
                    acc[k] = (acc.get(k, 0) + coeff * ck) % F.p
        assert all(v % F.p == 0 for v in acc.values()), terms


def test_functor_F_vertices(fig5, fig5_pres):
    # vertices 3 and 4 map to the same e-bar component
    q = fig5.quiver
    f3 = functor_F_vertex(fig5_pres, q.vindex["3"])
    f4 = functor_F_vertex(fig5_pres, q.vindex["4"])
    assert np.array_equal(f3, f4)
    ctx = fig5_pres.context
    e1 = ctx.idempotents[QGVertex(q.vindex["3"], ctx.chars.trivial())]
    assert np.array_equal(f3, e1)


def test_functor_F_stable_on_arrows(fig5, fig5_pres):
    q = fig5.quiver
    assert np.array_equal(functor_F_arrow(fig5_pres, q.aindex["c"]),
                          functor_F_arrow(fig5_pres, q.aindex["d"]))
    assert np.any(functor_F_arrow(fig5_pres, q.aindex["a"]))


def test_arrow_space_trichotomy(fig5, fig5_pres, fig1, fig1_pres):
    """The three-case dimension identity for the arrow-level covering."""
    for built, pres in ((fig5, fig5_pres), (fig1, fig1_pres)):
        q = built.quiver
        act, G = built.action, built.group
        for i in range(q.n_vertices):
            for j in range(q.n_vertices):
                lhs = arrow_space_dim(pres, i, j)
                stab_i = act.vertex_stabilizer(i)
                stab_j = act.vertex_stabilizer(j)
                def arrows_between(x, y):
                    return sum(1 for a in q.arrows
                               if a.source == x and a.target == y)
                if len(stab_i) < G.n:
                    rhs = sum(arrows_between(act.vertex(g, i), j)
                              for g in G.elements)
                elif len(stab_j) < G.n:
                    rhs = sum(arrows_between(i, act.vertex(g, j))
                              for g in G.elements)
                else:
                    rhs = G.n * arrows_between(i, j)
                assert lhs == rhs, (i, j, lhs, rhs)


def test_example_213_dimensions(fig1, fig1_pres, fig2):
    # unstable side: both spaces have dimension 2
    q = fig1.quiver
    assert arrow_space_dim(fig1_pres, q.vindex["v1"], q.vindex["v2"]) == 2
    # dual side: the arrow-space under F is 4-dimensional while the source
    # algebra's own arrow space between the pair is 2-dimensional
    pres2 = build_presentation(fig2.algebra, fig2.group, fig2.action)
    q2 = fig2.quiver
    i, j = q2.vindex["v1_r0"], q2.vindex["v2_r0"]
    assert arrow_space_dim(pres2, i, j) == 4
    assert sum(1 for a in q2.arrows if a.source == i and a.target == j) == 2


def test_dual_action_and_double_skew_fig5(fig5, fig5_pres):
    dual, dact = fig5_pres.dual_group_action()
    assert dual.orders == fig5.group.orders
    pres2 = build_presentation(fig5_pres.algebra, dual, dact)
    assert pres2.basic_dim == fig5.algebra.dim
    pool = sorted(set(roots_of_unity(F, 2)) | {F.p - 1})
    iso = find_algebra_isomorphism(pres2.algebra, fig5.algebra, pool)
    assert iso is not None


def test_serialize_reingest_roundtrip(fig5, fig5_pres):
    text = serialize_presentation(fig5_pres)
    doc = parse_input(text)
    built = build_input(doc)
    assert built.algebra.dim == fig5_pres.basic_dim
    assert built.quiver.n_vertices == fig5_pres.qg.n_vertices
    # byte-determinism of the emitted presentation
    assert text == serialize_presentation(fig5_pres)


def test_free_action_properties(free_a3):
    pres = build_presentation(free_a3.algebra, free_a3.group, free_a3.action)
    od = pres.context.orbit_data
    n = free_a3.group.n
    assert all(len(od.stabilizers[r]) == 1 for r in od.representatives)
    assert pres.qg.n_vertices == free_a3.quiver.n_vertices // n
    assert pres.basic_dim * n == free_a3.algebra.dim


def test_kronecker_arrow_pattern(kron_pres):
    """The twisted arrow connects consecutive character indices cyclically."""
    qg = kron_pres.qg
    assert qg.n_vertices == 6 and qg.n_arrows == 6
    al_arrows = [(qg.vertices[a.source], qg.vertices[a.target])
                 for i, a in enumerate(qg.arrows)
                 if kron_pres.arrows[i].lam_arrow == 0]
    be_arrows = [(qg.vertices[a.source], qg.vertices[a.target])
                 for i, a in enumerate(qg.arrows)
                 if kron_pres.arrows[i].lam_arrow == 1]
    assert al_arrows == [("1_r0", "2_r0"), ("1_r1", "2_r1"), ("1_r2", "2_r2")]
    assert be_arrows == [("1_r0", "2_r2"), ("1_r1", "2_r0"), ("1_r2", "2_r1")]
    assert kron_pres.relation_gens == []


@pytest.mark.parametrize("name", ["fig1.skw", "fig5.skw", "kronecker_z3.skw"])
@pytest.mark.parametrize("kind", ["square", "both-orders", "second-order-only"])
def test_idempotent_check_reports_the_loops_first_failure(name, kind):
    built = load_built(name)
    pres = build_presentation(built.algebra, built.group, built.action)
    ctx = pres.context
    es, vs = ctx.idempotents, ctx.vertices
    if kind == "square":
        # (2e)^2 = 4e, at two vertices: the earlier one is reported
        for v in (vs[len(vs) // 2], vs[-1]):
            es[v] = F.smul(2, es[v])
    elif kind == "both-orders":
        # with l the last vertex, e_1 + e_l and e_{l-1} + e_l stay
        # idempotent but meet e_l and each other on both sides: three
        # pairs fail, (1, l-1) first
        for v in (vs[1], vs[-2]):
            es[v] = F.add(es[v], es[vs[-1]])
    else:
        # x realizes an arrow s -> t with s two or more places before t:
        # e_s + x stays idempotent, (e_s + x) e_t = 0 and e_t (e_s + x) = x.
        # e_k + e_j with s < k < t and s < j fails in both orders, so the
        # least failing product e_k e_j precedes e_t e_s, yet the pair
        # (s, t) is the loop's first
        ar = next(a for a in pres.arrows
                  if ctx.vqindex[a.target] - ctx.vqindex[a.source] >= 2)
        s, t = ctx.vqindex[ar.source], ctx.vqindex[ar.target]
        k = s + 1
        j = next(u for u in range(s + 1, len(vs)) if u not in (k, t))
        es[vs[s]] = F.add(es[vs[s]], pres.elements[ar.name])
        es[vs[k]] = F.add(es[vs[k]], es[vs[j]])
    with pytest.raises(AssertionError) as old:
        loop_check_idempotents(ctx)
    with pytest.raises(AssertionError) as new:
        ctx._check_idempotents()
    assert str(new.value) == str(old.value)
    assert ("e^2 = e" in str(old.value)) == (kind == "square")
    if kind == "second-order-only":
        assert str(old.value) == f"idempotents at {vs[s]}, {vs[t]} not orthogonal"


def test_dual_action_without_arrows():
    built = build_input(parse_input(
        "field p = 1009\nvertex a\nvertex b\ngroup Z2\n"
        "action g1: vertex a -> b\naction g1: vertex b -> a\n"))
    pres = build_presentation(built.algebra, built.group, built.action)
    _, dact = pres.dual_group_action()
    assert pres.arrows == [] and dact.gen_amap == [{}]


def test_unsupported_realizing_element_is_refused(fig5, monkeypatch):
    # adding e_s to the second element x: e_t (x + e_s) e_s = x
    realize, bent = SkewPresentation._realize, []

    def bend(self, i0, j0, case, a, rho, sigma, counter):
        arrow, elem = realize(self, i0, j0, case, a, rho, sigma, counter)
        if counter == 1:
            bent.append(arrow)
            elem = (elem + self.context.idempotents[arrow.source]) % F.p
        return arrow, elem

    monkeypatch.setattr(SkewPresentation, "_realize", bend)
    with pytest.raises(AssertionError) as err:
        build_presentation(fig5.algebra, fig5.group, fig5.action)
    ar, = bent
    assert str(err.value) == (f"realizing element not supported at "
                              f"({ar.source}, {ar.target}), case {ar.case}")
