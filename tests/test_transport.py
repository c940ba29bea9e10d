from collections import Counter
from functools import cache

import pytest

from skewcover import ar, cli, pushdown, rep, transport
from skewcover.ar import knit_ar_quiver
from skewcover.field import PrimeField
from skewcover.rep import (Representation, decompose, irr_space, is_isomorphic,
                           match_summands, module_stabilizer, twist)
from skewcover.pushdown import (decompose_pushdown, pushdown_module,
                                pushdown_morphism, pushdown_twist_gauge)
from skewcover.skew import build_presentation
from skewcover.transport import (KnitPushes, pushdown_sequences,
                                 pushed_middle_summands)

from conftest import generated_text, load_built, load_generated
from oracle_paper import morphism_level, verify_almost_split
from oracle_transport import pushdown_sequence as oracle_pushdown_sequence
from oracle_transport import sequence_stabilizer

F = PrimeField(1009)


def _built(key):
    return (load_generated(key) if key.startswith(("star", "cover"))
            else load_built(f"{key}.skw"))


def _knits(built):
    """(pres, arq, arq_skew): both sides knitted with their actions, as
    `transport-ars` knits them."""
    pres = build_presentation(built.algebra, built.group, built.action)
    return (pres, knit_ar_quiver(built.algebra, action=pres.context.action),
            knit_ar_quiver(pres.algebra, action=pres.dual_group_action()[1]))


@cache
def _sides(key):
    """{side: (action, pres, arq, arq_skew)}: the base side transports from
    Lambda to Lambda G, the skew side from Lambda G, with the dual action,
    to its own skew algebra."""
    built = _built(key)
    pres, arq, arq_skew = _knits(built)
    dual, dact = pres.dual_group_action()
    pres2 = build_presentation(pres.algebra, dual, dact)
    arq2_skew = knit_ar_quiver(pres2.algebra, action=pres2.dual_group_action()[1])
    return {"base": (built.action, pres, arq, arq_skew),
            "skew": (dact, pres2, arq_skew, arq2_skew)}


@cache
def _pushed(key):
    _, pres, arq, arq_skew = _sides(key)["base"]
    return pushdown_sequences(pres, arq, arq_skew)


def _find(mods, dims, label=None):
    for i, m in enumerate(mods):
        if m.dims == dims and (label is None or m.label() == label):
            return i
    raise KeyError((dims, label))


def test_sequence_stabilizers(fig5, fig5_arq):
    act = fig5.action
    full = fig5.group.n
    for t, seq in fig5_arq.sequences.items():
        stab = sequence_stabilizer(act, seq.left, seq.right)
        sm = module_stabilizer(act, seq.left)
        st = module_stabilizer(act, seq.right)
        assert stab == sorted(sm) == sorted(st)
        # the middle term decomposes per the stated shape when stabilized
        if len(stab) == full:
            for s in seq.middle_summands:
                ssum = module_stabilizer(act, s.rep)
                if len(ssum) < full:
                    # unstable middle summands come in complete orbits
                    partner = twist(act, (1,), s.rep)
                    assert any(is_isomorphic(x.rep, partner)
                               for x in seq.middle_summands)


def test_trivial_group_stabilizer(fig5):
    from skewcover.action import AbelianGroup, QuiverAction
    G1 = AbelianGroup((1,))
    act = QuiverAction(fig5.algebra, G1, [{}], [{}])
    # just one sequence is enough
    from skewcover.ar import ARToolkit, almost_split_sequence, simple_module
    tk = ARToolkit(fig5.algebra)
    S1 = simple_module(fig5.algebra, 0)
    seq = almost_split_sequence(tk, S1)
    assert sequence_stabilizer(act, seq.left, seq.right) == [G1.identity()]


def test_example_59_disjoint_pair():
    """The sequence starting at the stable two-factor module pushes to two
    disjoint sequences (gluing module zero)."""
    arq = _sides("fig5")["base"][2]
    ts = [t for t, s in arq.sequences.items()
          if s.left.dims == (1, 1, 0, 0)
          and s.left.label() == "1,0,0,0|0,1,0,0"]
    assert len(ts) == 1
    out = _pushed("fig5")[ts[0]]
    assert not out.single and not out.gluing
    assert len(out.sequences) == 2 and out.gluing == []
    rights = sorted(s.right.dims for s in out.sequences)
    assert rights == [(0, 1, 1, 2, 1), (1, 0, 2, 1, 1)]
    lefts = sorted(s.left.dims for s in out.sequences)
    assert lefts == [(0, 1, 0, 1, 0), (1, 0, 1, 0, 0)]


def test_example_59_glued_pair():
    """The sequence starting at the stable simple pushes to two sequences
    glued along the projective over the full-orbit vertex."""
    arq = _sides("fig5")["base"][2]
    ts = [t for t, s in arq.sequences.items() if s.left.dims == (0, 1, 0, 0)]
    assert len(ts) == 1
    out = _pushed("fig5")[ts[0]]
    assert out.gluing and len(out.sequences) == 2
    assert [z.dims for z in out.gluing] == [(0, 0, 1, 1, 1)]
    # both glued middles contain the gluing summand
    for s in out.sequences:
        mids = [x.rep for x in s.middle_summands]
        assert any(m.dims == (0, 0, 1, 1, 1) for m in mids)


def test_unstable_sequence_single():
    """A mesh with proper stabilizer (ending at a whisker simple) pushes to
    a single knitted mesh."""
    arq = _sides("fig5")["base"][2]
    out = _pushed("fig5")[_find(arq.modules, (0, 0, 1, 0))]
    assert out.single and len(out.sequences) == 1
    assert out.stabilizer_order == 1


def test_all_sequences_transport(fig5):
    """Every Lambda-mesh pushes to knitted skew meshes: glued families for
    full stabilizer, single meshes otherwise."""
    n = fig5.group.n
    pushed = _pushed("fig5")
    assert list(pushed) == sorted(_sides("fig5")["base"][2].sequences)
    for t, out in pushed.items():
        if out.stabilizer_order == n:
            assert len(out.sequences) == n
        else:
            assert out.single and len(out.sequences) == 1


def test_pushed_single_sequences_almost_split(fig5):
    """For proper stabilizer the literal pushed sequence (not only the
    knitted match) passes the almost-split factorization test, twisted
    ones with their middle summands carried through the gauge."""
    _, _, arq, arq_skew = _sides("fig5")["base"]
    checked = 0
    for t, out in _pushed("fig5").items():
        if not out.single:
            continue
        pushed = out.sequences[0]
        assert verify_almost_split(pushed, arq_skew.modules, arq_skew.calc)
        pairs = match_summands([s.rep for s in pushed.middle_summands],
                               [s.rep for s in decompose(pushed.middle)])
        assert pairs is not None and len(pairs) == len(pushed.middle_summands)
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_irr_transport_identity(fig5, fig5_pres, fig5_arq, fig5_skew_arq):
    """dim irr over the skew algebra between a pushed unstable module and a
    pushed stable module equals the twisted irr sum over the base."""
    act = fig5.action
    calc = fig5_arq.calc
    scalc = fig5_skew_arq.calc
    n = fig5.group.n
    checked = 0
    for i, M in enumerate(fig5_arq.modules):
        if len(module_stabilizer(act, M)) == n:
            continue
        for j, N in enumerate(fig5_arq.modules):
            if len(module_stabilizer(act, N)) < n:
                continue
            rhs = 0
            for g in fig5.group.elements:
                gM = twist(act, g, M)
                ig = next(k for k, R in enumerate(fig5_arq.modules)
                          if R.dims == gM.dims and is_isomorphic(R, gM))
                d, _ = irr_space(calc, fig5_arq.modules[ig], N)
                rhs += d
            FM = pushdown_module(fig5_pres, M).rep
            iFM = next(k for k, R in enumerate(fig5_skew_arq.modules)
                       if R.dims == FM.dims and is_isomorphic(R, FM))
            lhs = 0
            for chi, s in decompose_pushdown(fig5_pres, N).summands:
                iFN = next(k for k, R in enumerate(fig5_skew_arq.modules)
                           if R.dims == s.rep.dims and is_isomorphic(R, s.rep))
                d, _ = irr_space(scalc, fig5_skew_arq.modules[iFM],
                                 fig5_skew_arq.modules[iFN])
                lhs += d
            assert lhs == rhs, (i, j, lhs, rhs)
            checked += 1
    assert checked == 8 * 12


def test_radical_level_preserved_on_irreducibles(fig5, fig5_pres, fig5_arq,
                                                 fig5_skew_arq):
    """Spot check of radical preservation: mesh arrows stay exactly level 1."""
    calc = fig5_arq.calc
    scalc = fig5_skew_arq.calc
    checked = 0
    for (i, j), mult in sorted(fig5_arq.arrows.items())[:6]:
        d, reps = irr_space(calc, fig5_arq.modules[i], fig5_arq.modules[j])
        f = reps[0]
        Ff = pushdown_morphism(fig5_pres, f)
        lvl = _skew_level(fig5_pres, fig5_skew_arq, Ff)
        assert lvl == 1, (i, j, lvl)
        checked += 1
    assert checked == 6


def _skew_level(pres, skew_arq, Ff):
    mparts = decompose(Ff.source)
    nparts = decompose(Ff.target)
    calc = skew_arq.calc
    miso = [calc.classes.locate(s.rep) for s in mparts]
    niso = [calc.classes.locate(s.rep) for s in nparts]
    return morphism_level(calc, Ff, mparts, nparts, miso, niso)


@pytest.mark.parametrize("key", ["fig5", "free_action_a3", "star3_1"])
def test_pushed_middles_split_along_the_knit(recorded_knits, key):
    """F(E) split along E's summands, each through the split of F of its
    canonical representative, has the summands `decompose(F(E))` finds:
    the same (dims, label) sequence, the same classes, and the classes
    attached to them."""
    knit, skew = recorded_knits[key, "base"], recorded_knits[key, "skew"]
    assert knit.arq.sequences
    known = KnitPushes(knit.pres, knit.arq, skew.arq)
    for t, seq in knit.arq.sequences.items():
        FN = pushdown_module(knit.pres, seq.middle)
        got = pushed_middle_summands(known, seq, knit.arq.meshes[t], FN)
        want = decompose(FN.rep)
        assert ([(s.rep.dims, s.rep.label()) for s, _ in got]
                == [(s.rep.dims, s.rep.label()) for s in want])
        pairs = match_summands([s.rep for s, _ in got], [s.rep for s in want])
        assert pairs is not None and len(pairs) == len(want)
        assert [c for _, c in got] == [skew.arq.calc.index_of(s.rep) for s, _ in got]


@pytest.mark.parametrize("side", ["base", "skew"])
@pytest.mark.parametrize("key", ["fig5", "fig6", "free_action_a3", "star3_1",
                                 "star2_2", "cover2_4"])
def test_records_match_the_per_sequence_oracle(key, side):
    """One full push per G-orbit, carried through the gauge to the rest,
    gives what the per-sequence push gives on every sequence: the same
    stabilizer, form, knitted pieces and gluing modules, and for a single
    push a pushed sequence with the same terms and middle classes."""
    action, pres, arq, arq_skew = _sides(key)[side]
    pushed = pushdown_sequences(pres, arq, arq_skew)
    assert list(pushed) == sorted(arq.sequences)
    index = arq_skew.calc.index_of
    for t, out in pushed.items():
        want = oracle_pushdown_sequence(pres, action, arq.sequences[t], arq_skew)
        assert (out.stabilizer_order, out.single) == (want.stabilizer_order, want.single)
        assert [z.dims for z in out.gluing] == [z.dims for z in want.gluing]
        assert all(a is b for a, b in zip(out.gluing, want.gluing))
        assert len(out.sequences) == len(want.sequences)
        if out.single:
            got, exp = out.sequences[0], want.sequences[0]
            assert [M.dims for M in (got.left, got.middle, got.right)] == \
                [M.dims for M in (exp.left, exp.middle, exp.right)]
            assert (sorted(index(s.rep) for s in got.middle_summands)
                    == sorted(index(s.rep) for s in exp.middle_summands))
        else:
            assert all(a is b for a, b in zip(out.sequences, want.sequences))


@pytest.mark.parametrize("side", ["base", "skew"])
@pytest.mark.parametrize("key", ["fig5", "star3_1", "free_action_a3"])
def test_knit_stabilizers_match_module_stabilizer(key, side):
    """The stabilizers read off the orbit record are the twists' own."""
    action, _, arq, _ = _sides(key)[side]
    for k, M in enumerate(arq.modules):
        assert arq.stabilizer(k) == module_stabilizer(action, M), k
        o, g, u = arq.orbits[k]
        assert u.source.dims == twist(action, g, arq.modules[o]).dims
        assert u.target is M and u.is_valid() and u.is_invertible()


def test_orbit_stabilizer_of_a_non_cyclic_group():
    """Z2 x Z2 with g1 swapping two copies of A_2 and g2 fixing them: every
    orbit has 2 classes, and the 4 elements with g^2 = e do not single out
    the stabilizer of order 2, so the twists are tested; G_M = {e, g2}."""
    from skewcover.inputfmt import build_input, parse_input
    built = build_input(parse_input(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a: 1 -> 2\n"
        "arrow b: 3 -> 4\ngroup Z2 x Z2\naction g1: vertex 1 -> 3\n"
        "action g1: vertex 3 -> 1\naction g1: vertex 2 -> 4\n"
        "action g1: vertex 4 -> 2\naction g1: arrow a -> b\n"
        "action g1: arrow b -> a\n"))
    arq = knit_ar_quiver(built.algebra, action=built.action)
    assert len(arq.modules) == 6 and len(arq.stabilizers) == 3
    for k, M in enumerate(arq.modules):
        assert arq.stabilizer(k) == module_stabilizer(built.action, M) == [(0, 0), (0, 1)]


def test_gauge_fails_on_a_perturbed_twist(fig5, fig5_pres):
    """The gauge F(gM) -> F(M) commutes with the arrows only for the true
    twist: scaling one arrow of gM breaks it."""
    M, g = fig5.modules["N_3_2"], (1,)
    gM = twist(fig5.action, g, M)
    assert pushdown_twist_gauge(fig5_pres, g, M).is_invertible()
    assert pushdown_twist_gauge(fig5_pres, g, M, pushdown_module(fig5_pres, gM).rep)
    bad = Representation(gM.algebra, gM.dims,
                         [F.smul(2, m) if m.any() else m for m in gM.maps])
    with pytest.raises(AssertionError, match="gauge"):
        pushdown_twist_gauge(fig5_pres, g, M, pushdown_module(fig5_pres, bad).rep)


def test_twisted_push_refuses_a_wrong_twist(monkeypatch):
    """A twisted sequence whose orbit record names the wrong g fails the
    gauge check instead of borrowing its origin's answer."""
    pres, arq, arq_skew = _knits(_built("star3_1"))
    t = next(t for t in sorted(arq.sequences) if arq.orbits[t].index != t)
    o, g, u = arq.orbits[t]
    arq.orbits[t] = arq.orbits[t]._replace(g=pres.context.group.identity())
    with pytest.raises(AssertionError, match="gauge"):
        pushdown_sequences(pres, arq, arq_skew)


@pytest.mark.parametrize("key", ["fig5", "star3_1"])
def test_each_push_decides_each_fact_once(key, monkeypatch):
    """Knitted as `transport-ars` knits, a transport pushes each canonical
    Lambda class at most once, pushes in full one sequence per G-orbit,
    splits F M and F T into twist orbits without `decompose_pushdown`,
    builds no class index of its own, tests no stabilizer, and locates
    only modules it made: no module of a knitted sequence of the skew knit
    reaches `index_of`."""
    pres, arq, arq_skew = _knits(_built(key))
    knitted = {id(M) for s in arq_skew.sequences.values()
               for M in (s.left, s.middle, s.right, *(x.rep for x in s.middle_summands))}
    pushes, located, decomposed, indexes, full = [], [], [], [], []
    push, index_of = pushdown.pushdown_module, arq_skew.calc.index_of
    init, full_push = rep.IsoClasses.__init__, transport.pushdown_sequence
    for module in (pushdown, transport):
        monkeypatch.setattr(module, "pushdown_module",
                            lambda pres, M: pushes.append(M) or push(pres, M))
        monkeypatch.setattr(module, "decompose_pushdown",
                            lambda *args: decomposed.append(args), raising=False)
    for module in (rep, ar, pushdown):
        monkeypatch.setattr(module, "module_stabilizer",
                            lambda *args: pytest.fail("a stabilizer was tested"))
    monkeypatch.setattr(transport, "pushdown_sequence",
                        lambda known, t: full.append(t) or full_push(known, t))
    monkeypatch.setattr(rep.IsoClasses, "__init__",
                        lambda self, reps=(): indexes.append(self) or init(self, reps))
    # the recorded modules stay alive, so their ids stay distinct
    monkeypatch.setattr(arq_skew.calc, "index_of",
                        lambda M: located.append(M) or index_of(M))
    out = pushdown_sequences(pres, arq, arq_skew)
    forms = {"single" if o.single else "glued" if o.gluing else "disjoint"
             for o in out.values()}
    classes = Counter(id(M) for M in pushes if any(M is R for R in arq.modules))
    assert classes and max(classes.values()) == 1
    assert sorted(full) == sorted({arq.orbits[t].index for t in arq.sequences})
    assert len(full) < len(out)
    assert located and not any(id(M) in knitted for M in located)
    assert len({id(M) for M in located}) == len(located)
    assert decomposed == [] and indexes == []
    assert "single" in forms and len(forms) > 1


def test_transport_ars_star3_1_pushes_one_sequence_per_orbit(
        monkeypatch, tmp_path, capsys):
    """One `transport-ars star3_1` run tests no stabilizer and pushes 4 of
    its 8 sequences in full; the other 4 are g-twists carried through the
    gauge."""
    path = tmp_path / "star3_1.skw"
    path.write_text(generated_text("star3_1"))
    counts = Counter()
    stabilizer, full_push = rep.module_stabilizer, transport.pushdown_sequence
    for module in (rep, ar, pushdown):
        monkeypatch.setattr(module, "module_stabilizer", lambda *args: (
            counts.update(["module_stabilizer"]), stabilizer(*args))[1])
    monkeypatch.setattr(transport, "pushdown_sequence", lambda known, t: (
        counts.update(["full"]), full_push(known, t))[1])
    monkeypatch.setattr(transport, "_twisted_push", lambda *args, f=transport._twisted_push: (
        counts.update(["twisted"]), f(*args))[1])
    assert cli.main(["transport-ars", str(path)]) == 0
    assert "sequences: 8" in capsys.readouterr().out
    assert counts == {"full": 4, "twisted": 4}
