"""Transport of almost split sequences along the pushdown functor: a
sequence with full stabilizer pushes to a family of sequences glued along a
shared middle summand, one with proper stabilizer pushes to a single
sequence.  Every output is verified against the directly-knitted AR quiver
of the skew algebra.

F is constant on G-orbits: F(gM) ~ F(M) through the twist gauge
(`pushdown_twist_gauge`).  So one Lambda sequence per G-orbit is pushed and
checked in full, and the knit's orbit record carries its answer to the
g-twisted sequences of its orbit, each through a gauge checked as an
isomorphism of the pushed sequences.  Stabilizers are read off the orbit
records of both knits.

A knitted mesh ending at t is read off that quiver: its left term is
`tau_map[t]` and its middle classes are the arrows into t, with their
multiplicities (the knit reads both off its meshes and cross-checks them).
Only modules the push makes are located, each Lambda class's once: F M_k
of its canonical representative, the summands of F M_k, and the twist
summands of F M_k for the ends of a sequence with full stabilizer.

The pushed middle term F(E) is split along the knitted summands E_i of E:
the pushdown is additive (Gabriel, "The universal cover of a
representation-finite algebra", LNM 903, 1981), so F(E) is the sum of the
F(E_i) = F(M_k), each M_k's pushdown split once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ar import AlmostSplitSequence, ARQuiver, Mesh, _check_exact
from .pushdown import (PushdownResult, pushdown_module, pushdown_morphism,
                       pushdown_twist_gauge, twist_orbit_summands)
from .rep import RepMorphism, Summand, check_summands, decompose
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
    gluing: list
    single: bool
    stabilizer_order: int


class KnitPushes:
    """What a transport decides once per class k of the Lambda knit `arq`:
    the pushdown F M_k of the canonical representative M_k, its summands
    with their classes in the skew knit `arq_skew`, and the order of those
    classes along the twist orbit."""

    def __init__(self, pres: SkewPresentation, arq: ARQuiver, arq_skew: ARQuiver):
        self.pres, self.arq, self.arq_skew = pres, arq, arq_skew
        self._class = {id(M): k for k, M in enumerate(arq.modules)}
        self._pushed: dict[int, PushdownResult] = {}
        self._summands: dict[int, list[tuple[Summand, int]]] = {}
        self._twists: dict[int, list[int]] = {}

    def pushed(self, k: int) -> PushdownResult:
        if k not in self._pushed:
            self._pushed[k] = pushdown_module(self.pres, self.arq.modules[k])
        return self._pushed[k]

    def push(self, M) -> PushdownResult:
        """F M, read from the class's pushdown when M is a canonical
        representative of the knit."""
        k = self._class.get(id(M))
        return pushdown_module(self.pres, M) if k is None else self.pushed(k)

    def _origin(self, k: int) -> int:
        return k if self.arq.orbits is None else self.arq.orbits[k].index

    def summands(self, k: int) -> list[tuple[Summand, int]]:
        """The summands of F M_k with their classes, split and located once
        per G-orbit: the origin's are carried to M_k, with (g, u: g M_o ->
        M_k) from the orbit record, through the gauge F M_k -> F M_o."""
        if k not in self._summands:
            o = self._origin(k)
            if o == k:
                self._summands[k] = [(s, self.arq_skew.calc.index_of(s.rep))
                                     for s in decompose(self.pushed(k).rep)]
            else:
                _, g, u = self.arq.orbits[k]
                gauge = pushdown_twist_gauge(self.pres, g, self.arq.modules[o],
                                             self.pushed(k).rep, self.pushed(o).rep,
                                             via=u.inverse())
                back = gauge.inverse()
                self._summands[k] = [
                    (Summand(s.rep, back.compose(s.inclusion), s.projection.compose(gauge)), c)
                    for s, c in self.summands(o)]
        return self._summands[k]

    def index(self, k: int) -> int:
        """The class of an indecomposable F M_k."""
        parts = self.summands(k)
        if len(parts) != 1:
            raise AssertionError("the pushed end term of a sequence with proper "
                                 "stabilizer is decomposable")
        return parts[0][1]

    def twist_classes(self, k: int) -> list[int]:
        """The classes of the summands of F M_k, G_{M_k} = G, per character
        along the twist orbit (`twist_orbit_summands`); F M_k and F M_o
        share their summand classes, so once per G-orbit."""
        k = self._origin(k)
        if k not in self._twists:
            parts = self.summands(k)
            cls = {id(s): c for s, c in parts}
            self._twists[k] = [cls[id(s)] for _, s in twist_orbit_summands(
                self.pres, self.pushed(k).rep, [s for s, _ in parts])]
        return self._twists[k]


def _mesh_middle(arq: ARQuiver, t: int) -> list[int]:
    """The middle classes of the knitted mesh ending at t, with
    multiplicity: the arrows into t."""
    return sorted(x for (x, y), mult in arq.arrows.items() if y == t
                  for _ in range(mult))


def pushed_middle_summands(known: KnitPushes, seq: AlmostSplitSequence,
                           mesh: Mesh, FN: PushdownResult) -> list[tuple[Summand, int]]:
    """The summands of FN = F(E), E the middle term of `seq`, with their
    classes, read off the summands E_i of E: with u: M_k -> E_i from the
    mesh, a summand t of F(M_k) enters F(E) by F(incl_i u) o incl_t and
    leaves it by proj_t o F(u^-1 proj_i).  Sorted as `decompose` sorts, by
    dimension vector and then Loewy label, and checked to split F(E)."""
    pres, out = known.pres, []
    for s, (k, u) in zip(seq.middle_summands, mesh.middle):
        FS = known.pushed(k)
        into = pushdown_morphism(pres, s.inclusion.compose(u), FS, FN)
        onto = pushdown_morphism(pres, u.inverse().compose(s.projection), FN, FS)
        out.extend((Summand(t.rep, into.compose(t.inclusion),
                            t.projection.compose(onto)), c)
                   for t, c in known.summands(k))
    out.sort(key=lambda tc: (tc[0].rep.dims, tc[0].rep.label()))
    check_summands(FN.rep, [t for t, _ in out])
    return out


def pushdown_sequences(pres: SkewPresentation, arq: ARQuiver,
                       arq_skew: ARQuiver) -> dict[int, GluedSequenceSet]:
    """Push every almost split sequence of the Lambda knit `arq`, keyed by
    its right term.  Both knits must carry their orbit records (knitted
    with the action, and `arq_skew` with the dual action).  The sequence of
    each G-orbit's origin is pushed in full (`pushdown_sequence`); a
    sequence the knit twisted from it gets its answer through the gauge
    (`_twisted_push`)."""
    if arq.orbits is None or arq_skew.orbits is None:
        raise ValueError("transport reads the orbit records of knits made "
                         "with the action and the dual action")
    known = KnitPushes(pres, arq, arq_skew)
    out, pushed = {}, {}
    for t in sorted(arq.sequences):
        o = arq.orbits[t].index
        if o not in out:
            out[o], pushed[o] = pushdown_sequence(known, o)
        if t != o:
            out[t] = _twisted_push(known, t, out[o], pushed[o])
    return dict(sorted(out.items()))


def pushdown_sequence(known: KnitPushes, t: int):
    """Push the almost split sequence ending at the class t through the
    covering: (its `GluedSequenceSet`, the pushed sequence).

    Proper stabilizer: the pushed sequence is itself almost split over the
    skew algebra (checked against the knitted quiver).  Full stabilizer:
    the ends decompose into character twists; each twist pair bounds a
    knitted almost split sequence whose middle is the shared stable part Z
    plus the matching twist of the unstable part; the direct sum of the
    family's middles reproduces the pushed middle exactly.
    """
    pres, arq, arq_skew = known.pres, known.arq, known.arq_skew
    G = pres.context.group
    seq, mesh = arq.sequences[t], arq.meshes[t]
    x = mesh.left[0]
    stab = arq.stabilizer(t)
    if arq.stabilizer(x) != stab:
        raise AssertionError("end-term stabilizers differ on an AR sequence")

    FM, FN = known.push(seq.left), known.push(seq.middle)
    FT = known.pushed(t)                 # seq.right is the representative M_t
    Fincl = pushdown_morphism(pres, seq.incl, FM, FN)
    Fproj = pushdown_morphism(pres, seq.proj, FN, FT)
    pushed = AlmostSplitSequence(FM.rep, FN.rep, FT.rep, Fincl, Fproj)
    _check_exact(pushed)  # exactness of the functor on this sequence
    mid_parts = pushed_middle_summands(known, seq, mesh, FN)
    mid_idx = [c for _, c in mid_parts]

    if len(stab) < G.n:
        pushed.middle_summands = [s for s, _ in mid_parts]
        ft = known.index(t)
        if ft not in arq_skew.sequences:
            raise AssertionError("pushed right term has no knitted mesh")
        if arq_skew.tau_map[ft] != known.index(x):
            raise AssertionError("pushed sequence disagrees with knitted mesh (left)")
        if _mesh_middle(arq_skew, ft) != sorted(mid_idx):
            raise AssertionError("pushed sequence disagrees with knitted mesh (middle)")
        return GluedSequenceSet([pushed], [], True, len(stab)), pushed

    # full stabilizer: G_M = G_T = G, so F M and F T are character-twist orbits
    full = pres.dual_group_action()[0].n
    # Z: the stable classes of F(E), first seen first; each comes |G| times
    z_count = Counter(c for c in mid_idx if len(arq_skew.stabilizer(c)) == full)
    if any(c != G.n for c in z_count.values()):
        raise AssertionError("stable middle summands do not come in |G| copies")

    m_idx = set(known.twist_classes(x))
    sequences, family = [], []
    for ft in known.twist_classes(t):
        if ft not in arq_skew.sequences:
            raise AssertionError("twist of pushed right term has no knitted mesh")
        # the left term must be one of the M-twists
        if arq_skew.tau_map[ft] not in m_idx:
            raise AssertionError("knitted mesh left term is not an M-twist")
        sequences.append(arq_skew.sequences[ft])
        # middle shape: Z once plus a transversal of the unstable twists
        middle = _mesh_middle(arq_skew, ft)
        if any(z not in middle for z in z_count):
            raise AssertionError("gluing summand missing from a glued middle")
        family.extend(middle)

    # family middles sum to the pushed middle
    if sorted(family) != sorted(mid_idx):
        raise AssertionError("glued family middles do not reassemble F(middle)")
    return GluedSequenceSet(sequences, [arq_skew.modules[z] for z in z_count],
                            False, len(stab)), pushed


def _twisted_push(known: KnitPushes, t: int, origin: GluedSequenceSet,
                  pushed_o: AlmostSplitSequence) -> GluedSequenceSet:
    """The answer for the sequence ending at t, which the knit twisted from
    the sequence of its origin o along (g, u: g M_o -> M_t): F of it is
    pushed, and the gauges F(gX) -> F(X), F(gE) -> F(E) and F(M_t) -> F(M_o)
    (the last after F(u^-1)) are checked to be isomorphisms that commute
    with the pushed maps.  Then both pushed sequences are isomorphic, and
    share their classes, stabilizer and form."""
    pres, arq = known.pres, known.arq
    o, g, u = arq.orbits[t]
    seq, seq_o = arq.sequences[t], arq.sequences[o]
    FX, FE, FT = known.push(seq.left), known.push(seq.middle), known.pushed(t)
    Fincl = pushdown_morphism(pres, seq.incl, FX, FE)
    Fproj = pushdown_morphism(pres, seq.proj, FE, FT)
    gX = pushdown_twist_gauge(pres, g, seq_o.left, FX.rep, pushed_o.left)
    gE = pushdown_twist_gauge(pres, g, seq_o.middle, FE.rep, pushed_o.middle)
    gT = pushdown_twist_gauge(pres, g, seq_o.right, FT.rep, pushed_o.right,
                              via=u.inverse())
    if not (_equal(gE.compose(Fincl), pushed_o.incl.compose(gX))
            and _equal(gT.compose(Fproj), pushed_o.proj.compose(gE))):
        raise AssertionError("the twist gauge does not commute with the pushed sequences")
    sequences = list(origin.sequences)
    if origin.single:
        back = gE.inverse()
        pushed = AlmostSplitSequence(FX.rep, FE.rep, FT.rep, Fincl, Fproj, [
            Summand(s.rep, back.compose(s.inclusion), s.projection.compose(gE))
            for s in pushed_o.middle_summands])
        sequences = [pushed]
    return GluedSequenceSet(sequences, origin.gluing, origin.single,
                            origin.stabilizer_order)


def _equal(f: RepMorphism, h: RepMorphism) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(f.blocks, h.blocks))
