"""The per-sequence transport the package made before it read the knits'
orbit records: `pushdown_sequence` pushes one almost split sequence on its
own, decides the stabilizers with `sequence_stabilizer` and
`module_stabilizer`, splits each pushed middle summand and locates every
module it makes.  Kept verbatim as the oracle for
`transport.pushdown_sequences`, with `sequence_stabilizer`, which nothing
else in the package uses.
"""

from __future__ import annotations

from collections import Counter

from skewcover.action import QuiverAction
from skewcover.ar import AlmostSplitSequence, ARQuiver, _check_exact
from skewcover.pushdown import (PushdownResult, pushdown_module,
                                pushdown_morphism, twist_orbit_summands)
from skewcover.rep import (Representation, Summand, check_summands, decompose,
                           module_stabilizer)
from skewcover.skew import SkewPresentation
from skewcover.transport import GluedSequenceSet


def sequence_stabilizer(action: QuiverAction, left: Representation,
                        right: Representation) -> list:
    """G_E for an almost split sequence, certified through the equivalence
    with the end-term stabilizers."""
    sM = set(map(tuple, module_stabilizer(action, left)))
    sT = set(map(tuple, module_stabilizer(action, right)))
    if sM != sT:
        raise AssertionError("end-term stabilizers differ on an AR sequence")
    return sorted(sM)


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
