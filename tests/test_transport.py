import pytest

from skewcover import pushdown, rep, transport
from skewcover.ar import knit_ar_quiver
from skewcover.field import PrimeField
from skewcover.rep import (decompose, irr_space, is_isomorphic,
                           match_summands, module_stabilizer, twist)
from skewcover.pushdown import (decompose_pushdown, pushdown_module,
                                pushdown_morphism, sequence_stabilizer)
from skewcover.skew import build_presentation
from skewcover.transport import pushdown_sequence, pushed_middle_summands

from conftest import load_built, load_generated
from oracle_paper import morphism_level, verify_almost_split

F = PrimeField(1009)


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


def test_example_59_disjoint_pair(fig5, fig5_pres, fig5_arq, fig5_skew_arq):
    """The sequence starting at the stable two-factor module pushes to two
    disjoint sequences (gluing module zero)."""
    i12 = _find(fig5_arq.modules, (1, 1, 0, 0), "1,0,0,0|0,1,0,0")
    seqs = [s for s in fig5_arq.sequences.values()
            if s.left.dims == (1, 1, 0, 0)
            and s.left.label() == "1,0,0,0|0,1,0,0"]
    assert len(seqs) == 1
    out = pushdown_sequence(fig5_pres, fig5.action, seqs[0], fig5_skew_arq)
    assert not out.single and not out.gluing
    assert len(out.sequences) == 2 and out.gluing == []
    rights = sorted(s.right.dims for s in out.sequences)
    assert rights == [(0, 1, 1, 2, 1), (1, 0, 2, 1, 1)]
    lefts = sorted(s.left.dims for s in out.sequences)
    assert lefts == [(0, 1, 0, 1, 0), (1, 0, 1, 0, 0)]


def test_example_59_glued_pair(fig5, fig5_pres, fig5_arq, fig5_skew_arq):
    """The sequence starting at the stable simple pushes to two sequences
    glued along the projective over the full-orbit vertex."""
    seqs = [s for s in fig5_arq.sequences.values()
            if s.left.dims == (0, 1, 0, 0)]
    assert len(seqs) == 1
    out = pushdown_sequence(fig5_pres, fig5.action, seqs[0], fig5_skew_arq)
    assert out.gluing and len(out.sequences) == 2
    assert [z.dims for z in out.gluing] == [(0, 0, 1, 1, 1)]
    # both glued middles contain the gluing summand
    for s in out.sequences:
        mids = [x.rep for x in s.middle_summands]
        assert any(m.dims == (0, 0, 1, 1, 1) for m in mids)


def test_unstable_sequence_single(fig5, fig5_pres, fig5_arq, fig5_skew_arq):
    """A mesh with proper stabilizer (ending at a whisker simple) pushes to
    a single knitted mesh."""
    i3 = _find(fig5_arq.modules, (0, 0, 1, 0))
    seq = fig5_arq.sequences[i3]
    out = pushdown_sequence(fig5_pres, fig5.action, seq, fig5_skew_arq)
    assert out.single and len(out.sequences) == 1
    assert out.stabilizer_order == 1


def test_all_sequences_transport(fig5, fig5_pres, fig5_arq, fig5_skew_arq):
    """Every Lambda-mesh pushes to knitted skew meshes: glued families for
    full stabilizer, single meshes otherwise."""
    n = fig5.group.n
    for t, seq in sorted(fig5_arq.sequences.items()):
        out = pushdown_sequence(fig5_pres, fig5.action, seq, fig5_skew_arq)
        if out.stabilizer_order == n:
            assert len(out.sequences) == n
        else:
            assert out.single and len(out.sequences) == 1


def test_pushed_single_sequences_almost_split(fig5, fig5_pres, fig5_arq,
                                              fig5_skew_arq):
    """For proper stabilizer the literal pushed sequence (not only the
    knitted match) passes the almost-split factorization test."""
    checked = 0
    for t, seq in sorted(fig5_arq.sequences.items()):
        stab = sequence_stabilizer(fig5.action, seq.left, seq.right)
        if len(stab) == fig5.group.n:
            continue
        out = pushdown_sequence(fig5_pres, fig5.action, seq, fig5_skew_arq)
        pushed = out.sequences[0]
        assert verify_almost_split(pushed, fig5_skew_arq.modules,
                                   fig5_skew_arq.calc)
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
    """F(E) split along E's summands has the summands `decompose(F(E))`
    finds: the same (dims, label) sequence and the same classes."""
    knit = recorded_knits[key, "base"]
    assert knit.arq.sequences
    for seq in knit.arq.sequences.values():
        FN = pushdown_module(knit.pres, seq.middle)
        got = pushed_middle_summands(knit.pres, seq, FN)
        want = decompose(FN.rep)
        assert ([(s.rep.dims, s.rep.label()) for s in got]
                == [(s.rep.dims, s.rep.label()) for s in want])
        pairs = match_summands([s.rep for s in got], [s.rep for s in want])
        assert pairs is not None and len(pairs) == len(want)


@pytest.mark.parametrize("key", ["fig5", "star3_1"])
def test_each_push_decides_each_fact_once(key, monkeypatch):
    """Knitted as `transport-ars` knits, each push pushes the ends, the
    middle and each middle summand of E once, splits F M and F T into twist
    orbits without pushing them again, builds no class index of its own, and
    locates only modules it made: no module of a knitted sequence of the
    skew knit reaches `index_of`."""
    built = (load_generated(key) if key.startswith("star")
             else load_built(f"{key}.skw"))
    pres = build_presentation(built.algebra, built.group, built.action)
    arq = knit_ar_quiver(built.algebra, action=pres.context.action)
    arq_skew = knit_ar_quiver(pres.algebra, action=pres.dual_group_action()[1])
    knitted = {id(M) for s in arq_skew.sequences.values()
               for M in (s.left, s.middle, s.right, *(x.rep for x in s.middle_summands))}
    pushes, located, decomposed, indexes = [], [], [], []
    push, index_of = pushdown.pushdown_module, arq_skew.calc.index_of
    init = rep.IsoClasses.__init__
    for module in (pushdown, transport):
        monkeypatch.setattr(module, "pushdown_module",
                            lambda pres, M: pushes.append(M) or push(pres, M))
        monkeypatch.setattr(module, "decompose_pushdown",
                            lambda *args: decomposed.append(args), raising=False)
    monkeypatch.setattr(rep.IsoClasses, "__init__",
                        lambda self, reps=(): indexes.append(self) or init(self, reps))
    # the recorded modules stay alive, so their ids stay distinct
    monkeypatch.setattr(arq_skew.calc, "index_of",
                        lambda M: located.append(M) or index_of(M))
    forms = set()
    for t, seq in sorted(arq.sequences.items()):
        pushes.clear()
        located.clear()
        out = pushdown_sequence(pres, built.action, seq, arq_skew)
        forms.add("single" if out.single else "glued" if out.gluing else "disjoint")
        assert len(pushes) == 3 + len(seq.middle_summands)
        assert located and not any(id(M) in knitted for M in located)
    assert decomposed == [] and indexes == []
    assert "single" in forms and len(forms) > 1
