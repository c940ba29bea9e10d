"""Transport of almost split sequences along the pushdown functor: a
sequence with full stabilizer pushes to a family of sequences glued along a
shared middle summand, one with proper stabilizer pushes to a single
sequence.  Every output is verified against the directly-knitted AR quiver
of the skew algebra.

The pushed middle term F(E) is split along the knitted summands E_i of E:
the pushdown is additive (Gabriel, "The universal cover of a
representation-finite algebra", LNM 903, 1981), so F(E) is the sum of the
F(E_i), each split by its own memoized decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .action import QuiverAction
from .ar import (AlmostSplitSequence, ARQuiver, _check_exact)
from .pushdown import (PushdownResult, decompose_pushdown, pushdown_module,
                       pushdown_morphism, sequence_stabilizer)
from .rep import (IsoClasses, Representation, Summand, check_summands,
                  decompose, module_stabilizer)
from .skew import SkewPresentation


@dataclass
class GluedSequenceSet:
    """The pushed image of one AR sequence.

    If `glued` the family shares the summand list `gluing` (Z) inside each
    middle term; with Z = 0 the pushdown is the plain direct sum of the
    sequences.  `single` holds instead when the stabilizer was proper.
    """

    sequences: list[AlmostSplitSequence]
    gluing: list[Representation]
    glued: bool
    single: bool
    stabilizer_order: int


def _summand_multiset(arq: ARQuiver, summands: list[Summand]) -> tuple:
    return tuple(sorted(arq.calc.index_of(s.rep) for s in summands))


def pushed_middle_summands(pres: SkewPresentation, seq: AlmostSplitSequence,
                           FN: PushdownResult) -> list[Summand]:
    """The summands of FN = F(E), E the middle term of `seq`, read off the
    summands E_i of E: a summand t of F(E_i) enters F(E) by
    F(incl_i) o incl_t and leaves it by proj_t o F(proj_i).  Sorted as
    `decompose` sorts, by dimension vector and then Loewy label, and
    checked to split F(E)."""
    out = []
    for s in seq.middle_summands:
        FS = pushdown_module(pres, s.rep)
        into = pushdown_morphism(pres, s.inclusion, FS, FN)
        onto = pushdown_morphism(pres, s.projection, FN, FS)
        out.extend(Summand(t.rep, into.compose(t.inclusion),
                           t.projection.compose(onto)) for t in decompose(FS.rep))
    out.sort(key=lambda t: (t.rep.dims, t.rep.label()))
    check_summands(FN.rep, out)
    return out


def pushdown_sequence(pres: SkewPresentation, action: QuiverAction,
                      seq: AlmostSplitSequence,
                      arq_skew: ARQuiver) -> GluedSequenceSet:
    """Push an almost split sequence through the covering.

    Proper stabilizer: the pushed sequence is itself almost split over the
    skew algebra (checked against the knitted quiver).  Full stabilizer:
    the ends decompose into character twists; each twist pair bounds a
    knitted almost split sequence whose middle is the shared stable part Z
    plus the matching twist of the unstable part; the direct sum of the
    family's middles reproduces the pushed middle exactly.
    """
    ctx = pres.context
    G = ctx.group
    index = arq_skew.calc.index_of
    stab = sequence_stabilizer(action, seq.left, seq.right)

    FM = pushdown_module(pres, seq.left)
    FN = pushdown_module(pres, seq.middle)
    FT = pushdown_module(pres, seq.right)
    Fincl = pushdown_morphism(pres, seq.incl, FM, FN)
    Fproj = pushdown_morphism(pres, seq.proj, FN, FT)
    pushed = AlmostSplitSequence(FM.rep, FN.rep, FT.rep, Fincl, Fproj)
    _check_exact(pushed)  # exactness of the functor on this sequence
    mid_parts = pushed_middle_summands(pres, seq, FN)

    if len(stab) < G.n:
        pushed.middle_summands = mid_parts
        knitted = arq_skew.sequences.get(index(FT.rep))
        if knitted is None:
            raise AssertionError("pushed right term has no knitted mesh")
        if index(knitted.left) != index(FM.rep):
            raise AssertionError("pushed sequence disagrees with knitted mesh (left)")
        if (_summand_multiset(arq_skew, knitted.middle_summands)
                != _summand_multiset(arq_skew, mid_parts)):
            raise AssertionError("pushed sequence disagrees with knitted mesh (middle)")
        return GluedSequenceSet([pushed], [], False, True, len(stab))

    # full stabilizer: organize by character twists
    dual, dact = pres.dual_group_action()
    m_parts = decompose_pushdown(pres, seq.left).summands
    t_parts = decompose_pushdown(pres, seq.right).summands

    stable_parts = [s for s in mid_parts
                    if len(module_stabilizer(dact, s.rep)) == dual.n]
    # Z: one copy of each stable isomorphism class (they come n at a time)
    z = IsoClasses()
    z_count = Counter(z.add(s.rep) for s in stable_parts)
    if any(c != G.n for c in z_count.values()):
        raise AssertionError("stable middle summands do not come in |G| copies")
    z_classes = z.reps
    z_idx = sorted(index(r) for r in z_classes)

    m_idx = {index(m_s.rep) for _, m_s in m_parts}
    sequences = []
    for chi, t_s in t_parts:
        knitted = arq_skew.sequences.get(index(t_s.rep))
        if knitted is None:
            raise AssertionError("twist of pushed right term has no knitted mesh")
        # the left term must be one of the M-twists
        if index(knitted.left) not in m_idx:
            raise AssertionError("knitted mesh left term is not an M-twist")
        sequences.append(knitted)
        # middle shape: Z once plus a transversal of the unstable twists
        mid_idx = _summand_multiset(arq_skew, knitted.middle_summands)
        for zi in z_idx:
            if zi not in mid_idx:
                raise AssertionError("gluing summand missing from a glued middle")

    # family middles sum to the pushed middle
    family = []
    for s in sequences:
        family.extend(_summand_multiset(arq_skew, s.middle_summands))
    if tuple(sorted(family)) != _summand_multiset(arq_skew, mid_parts):
        raise AssertionError("glued family middles do not reassemble F(middle)")

    return GluedSequenceSet(sequences, z_classes, bool(z_classes), False, len(stab))
