"""Transport of almost split sequences along the pushdown functor: a
sequence with full stabilizer pushes to a family of sequences glued along a
shared middle summand, one with proper stabilizer pushes to a single
sequence.  Every output is verified against the directly-knitted AR quiver
of the skew algebra.

A knitted mesh ending at t is read off that quiver: its left term is
`tau_map[t]` and its middle classes are the arrows into t, with their
multiplicities (the knit reads both off its meshes and cross-checks them).
Only modules the push makes are located: F T, F M, the summands of F E and
the twist summands of F M and F T.

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
from .pushdown import (PushdownResult, pushdown_module, pushdown_morphism,
                       sequence_stabilizer, twist_orbit_summands)
from .rep import (Representation, Summand, check_summands, decompose,
                  module_stabilizer)
from .skew import SkewPresentation


@dataclass
class GluedSequenceSet:
    """The pushed image of one AR sequence.

    With full stabilizer the family shares the summand list `gluing` (Z, as
    knitted representatives) inside each middle term; with Z = 0 the
    pushdown is the plain direct sum of the sequences.  `single` holds
    instead when the stabilizer was proper.
    """

    sequences: list[AlmostSplitSequence]
    gluing: list[Representation]
    single: bool
    stabilizer_order: int


def _mesh_middle(arq: ARQuiver, t: int) -> list[int]:
    """The middle classes of the knitted mesh ending at t, with
    multiplicity: the arrows into t."""
    return sorted(x for (x, y), mult in arq.arrows.items() if y == t
                  for _ in range(mult))


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
    G = pres.context.group
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
    mid_idx = [index(s.rep) for s in mid_parts]

    if len(stab) < G.n:
        pushed.middle_summands = mid_parts
        t = index(FT.rep)
        if t not in arq_skew.sequences:
            raise AssertionError("pushed right term has no knitted mesh")
        if arq_skew.tau_map[t] != index(FM.rep):
            raise AssertionError("pushed sequence disagrees with knitted mesh (left)")
        if _mesh_middle(arq_skew, t) != sorted(mid_idx):
            raise AssertionError("pushed sequence disagrees with knitted mesh (middle)")
        return GluedSequenceSet([pushed], [], True, len(stab))

    # full stabilizer: G_M = G_T = G, so F M and F T are character-twist orbits
    dual, dact = pres.dual_group_action()
    # Z: the stable classes of F(E), first seen first; each comes |G| times
    z_count = Counter(c for s, c in zip(mid_parts, mid_idx)
                      if len(module_stabilizer(dact, s.rep)) == dual.n)
    if any(c != G.n for c in z_count.values()):
        raise AssertionError("stable middle summands do not come in |G| copies")

    m_idx = {index(m_s.rep) for _, m_s in twist_orbit_summands(pres, FM.rep)}
    sequences, family = [], []
    for _, t_s in twist_orbit_summands(pres, FT.rep):
        t = index(t_s.rep)
        if t not in arq_skew.sequences:
            raise AssertionError("twist of pushed right term has no knitted mesh")
        # the left term must be one of the M-twists
        if arq_skew.tau_map[t] not in m_idx:
            raise AssertionError("knitted mesh left term is not an M-twist")
        sequences.append(arq_skew.sequences[t])
        # middle shape: Z once plus a transversal of the unstable twists
        middle = _mesh_middle(arq_skew, t)
        if any(z not in middle for z in z_count):
            raise AssertionError("gluing summand missing from a glued middle")
        family.extend(middle)

    # family middles sum to the pushed middle
    if sorted(family) != sorted(mid_idx):
        raise AssertionError("glued family middles do not reassemble F(middle)")
    return GluedSequenceSet(sequences, [arq_skew.modules[z] for z in z_count],
                            False, len(stab))
