"""Acceptance suite: one test per criterion, each printing a timed
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they pass."""

import json
import time

import numpy as np

from skewcover.field import PrimeField
from skewcover.quiver import (BoundAlgebra, Quiver, RelationElement,
                              is_gentle, is_skew_gentle, make_path)
from skewcover.inputfmt import build_input, parse_input
from skewcover.skew import build_presentation
from skewcover.rep import (decompose, irr_space, is_indecomposable,
                           is_isomorphic, module_stabilizer)
from skewcover.ar import category_rank, knit_ar_quiver
from skewcover.pushdown import (decompose_pushdown, pushdown_module,
                                pushdown_morphism, verify_semi_covering)
from skewcover.transport import pushdown_sequences
from skewcover.isosearch import find_algebra_isomorphism, roots_of_unity

from conftest import data_text, golden_text
from oracle_paper import morphism_level

F = PrimeField(1009)


def report(number, name, t0, budget):
    dt = time.time() - t0
    line = f"PASS criterion {number:2d} [{dt:6.2f}s / budget {budget}s]: {name}"
    print(line)
    assert dt < budget, f"criterion {number} exceeded its time budget: {dt:.2f}s"


def _ideals_equal_same_quiver(algA, algB):
    if algA.dim != algB.dim:
        return False
    for src, dst in ((algA, algB), (algB, algA)):
        for r in src.relations:
            vec = {}
            for c, w in r.terms:
                nf = dst.nf.get(w)
                if nf is None:
                    return False
                for k, ck in nf.items():
                    vec[k] = (vec.get(k, 0) + c * ck) % dst.F.p
            if any(v % dst.F.p for v in vec.values()):
                return False
    return True


def test_criterion_01_skew_fig5(fig5):
    t0 = time.time()
    pres = build_presentation(fig5.algebra, fig5.group, fig5.action)
    assert pres.qg.n_vertices == 5
    assert pres.qg.n_arrows == 6
    match = json.loads(golden_text("fig6_match.json"))
    qg = pres.qg

    def mapped_path(names):
        idx = [qg.aindex[match["arrow_map"][nm][0][1]] for nm in names]
        return make_path(qg, tuple(idx))

    fig_rels = [RelationElement(tuple((c, mapped_path(p)) for c, p in terms))
                for terms in match["figure_relations"]]
    fig_alg = BoundAlgebra(F, qg, fig_rels, pres.length_bound)
    assert _ideals_equal_same_quiver(pres.algebra, fig_alg)
    report(1, "skew of fig5 reproduces the five-vertex figure presentation",
           t0, 1.0)


def test_criterion_02_skew_fig1(fig1):
    t0 = time.time()
    pres = build_presentation(fig1.algebra, fig1.group, fig1.action)
    qg = pres.qg
    assert qg.n_vertices == 6
    # the double arrow: two parallel arrows between the fiber of v1 and v2
    double = [(a.source, a.target) for a in qg.arrows]
    assert sum(1 for st in double if double.count(st) == 2) == 2
    match = json.loads(golden_text("fig2_match.json"))
    # figure algebra on its own quiver
    figq = Quiver(match["figure_vertices"], [tuple(a) for a in match["figure_arrows"]])
    fig_rels = [
        RelationElement(tuple(
            (c, make_path(figq, tuple(figq.aindex[nm] for nm in p)))
            for c, p in terms))
        for terms in match["figure_relations"]]
    fig_alg = BoundAlgebra(F, figq, fig_rels)
    assert fig_alg.dim == pres.algebra.dim == 18
    # transported figure relations vanish in the computed algebra; the
    # arrow combination matrix is invertible, so this certifies ideal
    # equality through the declared matching
    for terms in match["figure_relations"]:
        acc = {}
        for c, names in terms:
            cur = [(c, [])]
            for nm in reversed(names):
                cur = [(coeff * c2 % F.p, [qg.aindex[t]] + arrows)
                       for coeff, arrows in cur
                       for c2, t in match["arrow_map"][nm]]
            for coeff, arrows in cur:
                nf = pres.algebra.nf.get(make_path(qg, tuple(arrows)))
                assert nf is not None
                for k, ck in nf.items():
                    acc[k] = (acc.get(k, 0) + coeff * ck) % F.p
        assert all(v % F.p == 0 for v in acc.values())
    report(2, "skew of fig1 reproduces the double-arrow figure presentation",
           t0, 1.0)


def test_criterion_03_double_skew(fig5, fig1, fig2, fig6):
    t0 = time.time()
    pool = sorted(set(roots_of_unity(F, 2)) | {F.p - 1})
    for built in (fig5, fig1):
        pres = build_presentation(built.algebra, built.group, built.action)
        dual, dact = pres.dual_group_action()
        back = build_presentation(pres.algebra, dual, dact)
        assert find_algebra_isomorphism(back.algebra, built.algebra, pool)
    # the bundled basic-form inputs skew back to the originals directly
    p2 = build_presentation(fig2.algebra, fig2.group, fig2.action)
    assert find_algebra_isomorphism(p2.algebra, fig1.algebra, pool)
    p6 = build_presentation(fig6.algebra, fig6.group, fig6.action)
    assert find_algebra_isomorphism(p6.algebra, fig5.algebra, pool)
    report(3, "double skew returns the original algebra up to quiver iso",
           t0, 2.0)


def test_criterion_04_pushdown_golden(fig1, fig1_pres):
    t0 = time.time()
    golden = json.loads(golden_text("fig4_pushdown.json"))
    res = pushdown_module(fig1_pres, fig1.modules["M_fig3"])
    qg = fig1_pres.qg
    name_to_idx = {v: i for i, v in enumerate(qg.vertices)}
    for fig_v, dim in golden["vertex_dims"].items():
        assert res.rep.dims[name_to_idx[golden["vertex_map"][fig_v]]] == dim
    for qv_name, expect in golden["fiber_order"].items():
        assert [fig1.quiver.vertices[v] for v in res.fibers[qv_name]] == expect
    half = F.inv(2)
    coeff = {1: 1, "half": half, "-half": (-half) % F.p}
    for fig_arrow, combo in golden["arrow_combinations"].items():
        acc = None
        for c, name in combo:
            term = F.smul(coeff[c], res.rep.maps[qg.aindex[name]])
            acc = term if acc is None else F.add(acc, term)
        assert np.array_equal(acc, F.mat(golden["matrices"][fig_arrow])), fig_arrow
    report(4, "pushdown of the worked module reproduces the figure matrices "
              "bit-exactly", t0, 1.0)


def test_criterion_05_decomposition_behavior(fig5, fig5_pres):
    t0 = time.time()
    S2 = fig5.modules["S2"]
    sd = decompose_pushdown(fig5_pres, S2)
    assert sorted(s.rep.dims for _, s in sd.summands) == \
        [(0, 0, 0, 1, 0), (0, 0, 1, 0, 0)]
    assert all(s.rep.total_dim == 1 for _, s in sd.summands)
    N32 = fig5.modules["N_3_2"]
    FN = pushdown_module(fig5_pres, N32).rep
    assert is_indecomposable(FN)
    target = _skew_module_1_24(fig5_pres)
    assert is_isomorphic(FN, target)
    sd2 = decompose_pushdown(fig5_pres, fig5.modules["M_1_2"])
    assert sorted(s.rep.dims for _, s in sd2.summands) == \
        [(0, 1, 0, 1, 0), (1, 0, 1, 0, 0)]
    report(5, "pushdown decomposition behavior on the worked modules",
           t0, 1.0)


def _skew_module_1_24(pres):
    """The projective over the full-orbit vertex: top there, socle at the
    two character copies."""
    from skewcover.ar import projective_module
    return projective_module(pres.algebra, 4)


def test_criterion_06_hom_identities(fig5, fig5_pres, fig5_arq,
                                     kronecker, kron_pres):
    t0 = time.time()
    cases = {"G_M != G": 0, "G_N != G": 0, "G_MN = G": 0}
    for M in fig5_arq.modules:
        for N in fig5_arq.modules:
            r = verify_semi_covering(fig5_pres, M, N)
            assert r.matches, (M.dims, N.dims, r)
            cases[r.case] += 1
    assert sum(cases.values()) == 400
    assert min(cases.values()) > 0
    # the 3x3 zero-block pattern of the stable Kronecker pair
    r = verify_semi_covering(kron_pres, kronecker.modules["S2"],
                             kronecker.modules["P1"], with_pattern=True)
    assert r.matches and r.lhs_dim == 6
    pat = np.array(r.block_pattern)
    zeros = {(i, j) for i in range(3) for j in range(3) if pat[i, j] == 0}
    assert len(zeros) == 3
    assert sorted(i for i, _ in zeros) == [0, 1, 2]
    assert sorted(j for _, j in zeros) == [0, 1, 2]
    offsets = {(j - i) % 3 for i, j in zeros}
    assert len(offsets) == 1 and offsets != {0}
    report(6, "Hom-space identities on all 400 ordered pairs plus the "
              "cyclic block pattern", t0, 30.0)


def test_criterion_07_ar_quivers(fig5, fig6):
    t0 = time.time()
    arq5 = knit_ar_quiver(fig5.algebra)
    arq6 = knit_ar_quiver(fig6.algebra)

    def check(arq, golden_name, n_expected):
        golden = json.loads(golden_text(golden_name))
        assert len(arq.modules) == len(golden["nodes"]) == n_expected
        by_key = {}
        for i, m in enumerate(arq.modules):
            by_key.setdefault(tuple(m.dims), []).append(i)
        mapping, used = {}, set()
        for node in golden["nodes"]:
            cands = [i for i in by_key.get(tuple(node["dims"]), [])
                     if i not in used]
            if "label" in node:
                cands = [i for i in cands
                         if arq.modules[i].label() == node["label"]]
            assert len(cands) == 1, node
            mapping[node["id"]] = cands[0]
            used.add(cands[0])
        expected = sorted((mapping[s], mapping[t]) for s, t in golden["arrows"])
        got = sorted((i, j) for (i, j), mult in arq.arrows.items()
                     for _ in range(mult))
        assert got == expected

    check(arq5, "fig7_ar.json", 20)
    check(arq6, "fig8_ar.json", 28)
    report(7, "knitted AR quivers match both transcribed figures", t0, 30.0)


def test_criterion_08_radical_preservation(fig5, fig5_pres, fig5_arq,
                                           fig5_skew_arq):
    t0 = time.time()
    calc = fig5_arq.calc
    scalc = fig5_skew_arq.calc
    mods = fig5_arq.modules
    n = fig5.group.n

    # per base module: pushdown, its decomposition, canonical transport
    cache = {}

    def skew_decomp(i):
        if i not in cache:
            FM = pushdown_module(fig5_pres, mods[i]).rep
            parts = decompose(FM)
            isos = [scalc.classes.locate(s.rep) for s in parts]
            cache[i] = (FM, parts, isos)
        return cache[i]

    arrow_reps = {}
    for (i, j), mult in fig5_arq.arrows.items():
        d, reps = irr_space(calc, mods[i], mods[j])
        arrow_reps[(i, j)] = reps[0]

    # exhaustive composable chains of mesh arrows up to length 4
    chains = [[(i, j)] for (i, j) in arrow_reps]
    all_chains = list(chains)
    for _ in range(3):
        chains = [ch + [(j2, k)] for ch in chains
                  for (j2, k) in arrow_reps if j2 == ch[-1][1]]
        all_chains.extend(chains)

    checked = 0
    for ch in all_chains:
        i0, jlast = ch[0][0], ch[-1][1]
        f = arrow_reps[ch[0]]
        for step in ch[1:]:
            f = arrow_reps[step].compose(f)
        lam_level = calc.membership_level(i0, jlast, f)
        Ff = pushdown_morphism(fig5_pres, f)
        FM, mparts, misos = skew_decomp(i0)
        FN, nparts, nisos = skew_decomp(jlast)
        if f.is_zero():
            assert Ff.is_zero()
            continue
        skew_level = morphism_level(scalc, Ff, mparts, nparts, misos, nisos)
        assert skew_level == lam_level, (ch, lam_level, skew_level)
        # irreducibility is preserved off the doubly-stable case
        if len(ch) == 1 and lam_level == 1:
            if (len(module_stabilizer(fig5.action, mods[i0])) < n
                    or len(module_stabilizer(fig5.action, mods[jlast])) < n):
                assert len(mparts) == 1 or len(nparts) == 1
        checked += 1
    assert len(all_chains) > 300 and checked > 200
    report(8, f"radical level preserved on {checked} nonzero composites "
              f"of {len(all_chains)} mesh-arrow chains (length <= 4)", t0, 30.0)


def test_criterion_09_rank_equality(fig5_arq, fig6_arq):
    t0 = time.time()
    r5, s5 = category_rank(fig5_arq)
    r6, s6 = category_rank(fig6_arq)
    assert r5.finite and r6.finite
    assert r5.value == r6.value == 13   # frozen by the rad-iteration oracle
    assert s5.value == s6.value == 13
    report(9, "rank and stable rank equality at the frozen value 13", t0, 10.0)


def test_criterion_10_ar_transport(fig5, fig5_pres):
    t0 = time.time()
    n = fig5.group.n
    glued = disjoint = single = 0
    # knitted with the actions, as `transport-ars` knits
    arq = knit_ar_quiver(fig5.algebra, action=fig5.action)
    arq_skew = knit_ar_quiver(fig5_pres.algebra,
                              action=fig5_pres.dual_group_action()[1])
    for t, out in pushdown_sequences(fig5_pres, arq, arq_skew).items():
        seq = arq.sequences[t]
        if out.single:
            single += 1
        elif out.gluing:
            glued += 1
        else:
            disjoint += 1
        # E1: left term the stable two-factor module: disjoint pair
        if (seq.left.dims == (1, 1, 0, 0)
                and seq.left.label() == "1,0,0,0|0,1,0,0"):
            assert not out.gluing and len(out.sequences) == 2
        # E2: left term the stable simple: glued pair via the full-orbit
        # projective
        if seq.left.dims == (0, 1, 0, 0):
            assert out.gluing and len(out.sequences) == 2
            assert [z.dims for z in out.gluing] == [(0, 0, 1, 1, 1)]
    assert single == 6 and glued + disjoint == 10
    report(10, "AR sequences transport to glued / disjoint / single knitted "
               "meshes", t0, 10.0)


def test_criterion_11_recognizers(fig6, free_a3):
    t0 = time.time()
    ok, viol = is_gentle(free_a3.quiver, free_a3.relations)
    assert ok, viol
    doc = parse_input(data_text("a2_specialloop.skw"))
    built = build_input(doc, build_algebra=False)
    ok, viol = is_skew_gentle(built.quiver, built.relations,
                              built.special_loops, p=built.field.p)
    assert ok, viol
    ok, viol = is_gentle(fig6.quiver, fig6.relations)
    assert not ok
    witnesses = [v.witness for v in viol if v.clause == "length-2"]
    assert any("be.ga.be" in w or "ga.be.ga" in w for w in witnesses)
    report(11, "gentle / skew-gentle recognizers with witnesses", t0, 1.0)


def test_criterion_12_free_action(free_a3):
    t0 = time.time()
    pres = build_presentation(free_a3.algebra, free_a3.group, free_a3.action)
    od = pres.context.orbit_data
    n = free_a3.group.n
    assert all(len(od.stabilizers[r]) == 1 for r in od.representatives)
    assert pres.qg.n_vertices == free_a3.quiver.n_vertices // n
    assert pres.basic_dim * n == free_a3.algebra.dim
    report(12, "free action: quotient vertex count and dimension identity",
           t0, 1.0)
