"""The pushdown functor from modules over Lambda to modules over the basic
skew algebra, its reverse G_lambda, and the verification machinery for the
Hom-space isomorphisms and decomposition behavior.  The checks of
semi-density, of irreducible-morphism recovery and of the twist gauge live
in `tests/oracle_paper.py`.

G_lambda is the pull-up along the semi-covering: a B-module N restricted
along the map from Lambda's arrows into B described at `GLambda`.  The
tensor-quotient construction it replaces is kept as `tests/oracle_glambda.py`.

Coordinate conventions (these make the golden matrix tests deterministic):

* full-orbit representative i0: the Q_G vertex (i0, tr) carries the direct
  sum over slots g in G (lexicographic), slot g holding M(g i0);
* fixed representative i0: each Q_G vertex (i0, rho) carries a copy of
  M(i0) via the projection with the character-rho idempotent.

Arrow matrices are the exact matrices of left multiplication by the
realizing elements in these coordinates; each of the four endpoint cases
has the closed form implemented below, and the test suite cross-checks them
against an independently built (Lambda G)-module tensor construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import solve_linear
from .quiver import PathWord, make_path, path_source, path_target
from .action import Character, QuiverAction
from .rep import (IsoClasses, RepMorphism, Representation, Summand, decompose,
                  hom_basis, match_summands, module_stabilizer, twist)
from .skew import SkewPresentation


@dataclass
class PushdownResult:
    rep: Representation
    # per Q_G vertex: the list of Lambda vertices whose spaces were summed,
    # in slot order (a single entry for fixed-vertex copies)
    fibers: dict[str, list[int]]


def _slot_layout(pres: SkewPresentation):
    """Per Q_G vertex: list of (group element, Lambda vertex) slots."""
    ctx = pres.context
    layout = {}
    for qv in ctx.vertices:
        if ctx.is_full_orbit(qv.rep):
            slots = [(g, ctx.action.vertex(g, qv.rep)) for g in ctx.group.elements]
        else:
            slots = [(ctx.group.identity(), qv.rep)]
        layout[qv] = slots
    return layout


def pushdown_module(pres: SkewPresentation, M: Representation) -> PushdownResult:
    """F_lambda M as a representation of the computed skew presentation."""
    ctx = pres.context
    F, G = pres.F, ctx.group
    if M.algebra is not ctx.algebra and M.algebra.dim != ctx.algebra.dim:
        raise ValueError("module is not over the acted-on algebra")
    layout = _slot_layout(pres)
    qg = pres.qg

    dims = []
    offsets = {}
    for qi, qv in enumerate(ctx.vertices):
        offs = []
        total = 0
        for g, lv in layout[qv]:
            offs.append(total)
            total += M.dims[lv]
        offsets[qv] = offs
        dims.append(total)

    maps = []
    for ar in pres.arrows:
        src, tgt = ar.source, ar.target
        m = F.zeros(dims[ctx.vqindex[tgt]], dims[ctx.vqindex[src]])
        a = ar.lam_arrow
        if ar.case == 1:
            # block (slot g g_t^{-1}, slot g) = scalar * M(arrow) for
            # (g g_t^{-1})(a)
            gt_inv = G.inv(ar.twist)
            for si, (g, lv) in enumerate(layout[src]):
                gp = G.mul(g, gt_inv)
                lam, b = ctx.action.arrow(gp, a)
                ti = G.eindex[gp]
                blk = F.smul(lam, M.maps[b])
                _put(m, offsets[tgt][ti], offsets[src][si], blk)
        elif ar.case == 2:
            # copy (j0, sigma) receives sigma(g) * g(a) from slot g
            sigma = tgt.char
            for si, (g, lv) in enumerate(layout[src]):
                lam, b = ctx.action.arrow(g, a)
                c = ctx.chars.value(sigma, g) * lam % F.p
                _put(m, 0, offsets[src][si], F.smul(c, M.maps[b]))
        elif ar.case == 3:
            # slot g' receives (1/n) rho(g')^{-1} g'(a) from the rho-copy
            rho = ar.source.char
            coef = F.inv(G.n)
            for ti, (gp, lv) in enumerate(layout[tgt]):
                lam, b = ctx.action.arrow(gp, a)
                c = coef * F.inv(ctx.chars.value(rho, gp)) % F.p
                c = c * lam % F.p
                _put(m, offsets[tgt][ti], 0, F.smul(c, M.maps[b]))
        else:
            _put(m, 0, 0, M.maps[a])
        maps.append(m)

    rep = Representation(pres.algebra, dims, maps)
    fibers = {qv.name(ctx.algebra.quiver): [lv for _, lv in layout[qv]]
              for qv in ctx.vertices}
    return PushdownResult(rep, fibers)


def _put(m: np.ndarray, r: int, c: int, blk: np.ndarray):
    # blocks never overlap within one arrow matrix
    if blk.size:
        m[r: r + blk.shape[0], c: c + blk.shape[1]] = blk


def pushdown_morphism(pres: SkewPresentation, f: RepMorphism,
                      FM: PushdownResult | None = None,
                      FN: PushdownResult | None = None) -> RepMorphism:
    """F_lambda f: block-diagonal over the slot layout."""
    FM = FM or pushdown_module(pres, f.source)
    FN = FN or pushdown_module(pres, f.target)
    layout = _slot_layout(pres)
    out = RepMorphism(FM.rep, FN.rep, [
        pres.F.block_diag([f.blocks[lv] for _, lv in layout[qv]],
                          (FN.rep.dims[qi], FM.rep.dims[qi]))
        for qi, qv in enumerate(pres.context.vertices)])
    if not out.is_valid():
        raise AssertionError("pushdown of a morphism fails commuting squares")
    return out


# ---------------------------------------------------------------------------
# The reverse functor G_lambda
# ---------------------------------------------------------------------------

class GLambda:
    """(Lambda G) e-bar (x)_B (-) restricted to Lambda, computed as the
    pull-up N -> N o F along the semi-covering (Bongartz and Gabriel,
    "Covering spaces in representation theory", Invent. Math. 65 (1982)).

    Multiplying by 1 (x) kappa_x carries e_x (Lambda G) e-bar onto
    (e_{i0} (x) 1) B for the representative i0 of x.  So G_lambda N at x is
    N over the Q_G vertices above i0, in `ctx.vertices` order, and an arrow
    a: x -> y acts by phi(a) = kappa_y(a) (x) kappa_y kappa_x^{-1}, an
    element of B written once over B's basis paths."""

    def __init__(self, pres: SkewPresentation):
        self.pres = pres
        ctx = pres.context
        F, S, G, A = pres.F, ctx.skew, ctx.group, ctx.algebra
        self.F, self.S = F, S
        q = A.quiver
        # per Lambda vertex: the range of Q_G vertex indices over its
        # representative, consecutive in `ctx.vertices`
        self.fibres = []
        for x in range(q.n_vertices):
            over = [i for i, u in enumerate(ctx.vertices) if u.rep == ctx.rep_of_vertex(x)]
            self.fibres.append((over[0], over[-1] + 1))
        phi = F.zeros(S.dim, q.n_arrows)
        for a, arr in enumerate(q.arrows):
            ky, kx = ctx.kappa[arr.target], ctx.kappa[arr.source]
            avec = A.unit_vector(A.basis[A.bindex[make_path(q, (a,))]])
            phi[:, a] = S.group_element(ctx.action.apply(ky, avec), G.mul(ky, G.inv(kx)))
        B = pres.algebra
        coefs = solve_linear(F, np.stack([self._eval_path(w) for w in B.basis], axis=1), phi)
        if coefs is None:
            raise AssertionError("phi(a) is not in e-bar (Lambda G) e-bar")
        # per Lambda arrow: phi(a) as (coefficient, basis path of B) pairs
        self.phi = [[(int(coefs[k, a]), B.basis[k]) for k in np.nonzero(coefs[:, a])[0]]
                    for a in range(q.n_arrows)]

    def _eval_path(self, w: PathWord) -> np.ndarray:
        ctx = self.pres.context
        if w.is_trivial():
            return ctx.idempotents[ctx.vertices[w.vertex]]
        out = None
        for a in reversed(w.arrows):
            e = self.pres.elements[self.pres.arrows[a].name]
            out = e if out is None else self.S.multiply(e, out)
        return out

    def _fibre_slices(self, dims) -> tuple[np.ndarray, list[slice]]:
        """Offsets of the Q_G vertices in a total space with these dims, and
        per Lambda vertex the slice of its fibre."""
        off = np.cumsum([0, *dims])
        return off, [slice(off[lo], off[hi]) for lo, hi in self.fibres]

    def apply(self, N: Representation) -> Representation:
        """G_lambda N: at arrow a, the block of sum_w c_w N(w) between the
        fibres, for phi(a) = sum_w c_w w."""
        F, A = self.F, self.pres.context.algebra
        qb = self.pres.algebra.quiver
        off, span = self._fibre_slices(N.dims)
        maps = []
        for a, arr in enumerate(A.quiver.arrows):
            m = F.zeros(off[-1], off[-1])
            for c, w in self.phi[a]:
                s, t = path_source(qb, w), path_target(qb, w)
                m[off[t]: off[t + 1], off[s]: off[s + 1]] += F.smul(c, N.path_matrix(w))
            maps.append(m[span[arr.target], span[arr.source]])
        return Representation(A, [s.stop - s.start for s in span], maps)


def restrict_G_lambda(pres: SkewPresentation, N: Representation) -> Representation:
    return GLambda(pres).apply(N)


# ---------------------------------------------------------------------------
# Semi-covering verification
# ---------------------------------------------------------------------------

@dataclass
class SemiCoveringReport:
    case: str
    lhs_dim: int
    rhs_dim: int
    stab_M: int
    stab_N: int
    matches: bool
    block_pattern: list[list[int]] | None = None


class CoveringTable:
    """The semi-covering identity over a module list, with each per-module
    fact computed once: the pushdown F M, and the class of M and of every
    twist gM in one IsoClasses, so G_M = {g : class(gM) = class(M)}.  The
    Lambda side sums Hom dimensions between classes, each solved once; the
    skew side, dim Hom(F M, F N), is solved per pair as the oracle."""

    def __init__(self, pres: SkewPresentation, modules: list[Representation]):
        act, G = pres.context.action, pres.context.group
        self.order = G.n
        self.pushdowns = [pushdown_module(pres, M).rep for M in modules]
        classes = IsoClasses()
        self._cls = [classes.add(M) for M in modules]
        self._twists = [[classes.add(twist(act, g, M)) for g in G.elements]
                        for M in modules]
        reps = classes.reps
        self._h = functools.cache(lambda c, d: hom_basis(reps[c], reps[d]).dimension)

    def report(self, i: int, j: int) -> SemiCoveringReport:
        """Both sides of the identity for modules i and j."""
        ci, cj = self._cls[i], self._cls[j]
        stab_M, stab_N = self._twists[i].count(ci), self._twists[j].count(cj)
        if stab_M < self.order:
            case, rhs = "G_M != G", sum(self._h(c, cj) for c in self._twists[i])
        elif stab_N < self.order:
            case, rhs = "G_N != G", sum(self._h(ci, c) for c in self._twists[j])
        else:
            case, rhs = "G_MN = G", self.order * self._h(ci, cj)
        lhs = hom_basis(self.pushdowns[i], self.pushdowns[j]).dimension
        return SemiCoveringReport(case, lhs, rhs, stab_M, stab_N, lhs == rhs)


def verify_semi_covering(pres: SkewPresentation, M: Representation,
                         N: Representation,
                         with_pattern: bool = False) -> SemiCoveringReport:
    """The report of `CoveringTable` on the pair (M, N).  `with_pattern`
    additionally reports the nonzero-block matrix over the twist-summand
    decompositions in the doubly-stable case."""
    table = CoveringTable(pres, [M, N])
    r = table.report(0, 1)
    if with_pattern and r.case == "G_MN = G" and not M.is_zero() and not N.is_zero():
        r.block_pattern = _block_pattern(pres, M, N, *table.pushdowns)
    return r


def _block_pattern(pres, M, N, FM, FN):
    """Nonzero-block pattern of Hom(F M, F N) over the twist-summand
    decompositions (the Example-with-matrix-A shape)."""
    F = pres.F
    msum = decompose_pushdown(pres, M)
    nsum = decompose_pushdown(pres, N)
    H = hom_basis(FM, FN)
    pattern = [[0] * len(nsum.summands) for _ in msum.summands]
    for f in H.basis:
        for i, (chi_i, si) in enumerate(msum.summands):
            for j, (chi_j, sj) in enumerate(nsum.summands):
                blk = sj.projection.compose(f).compose(si.inclusion)
                if not blk.is_zero():
                    pattern[i][j] = 1
    return pattern


# ---------------------------------------------------------------------------
# Decomposition of pushdowns of stable modules
# ---------------------------------------------------------------------------

@dataclass
class StableDecomposition:
    summands: list[tuple[Character, Summand]]
    support_partition: dict[str, list[str]]
    arrow_partition: dict[str, list[str]]


def twist_orbit_summands(pres: SkewPresentation,
                         FM: Representation) -> list[tuple[Character, Summand]]:
    """The summands of a pushdown FM = F_lambda M with G_M = G, organized
    along the dual-action twist orbit: per character chi, the summand
    isomorphic to the chi-twist of the canonically least summand."""
    parts = decompose(FM)
    _, dact = pres.dual_group_action()
    chars = pres.context.chars
    twists = [twist(dact, chi.exponents, parts[0].rep) for chi in chars.characters]
    hits = match_summands(twists, [s.rep for s in parts])
    if hits is None:
        raise AssertionError("pushdown summands are not a twist orbit")
    if len(hits) != len(parts):
        raise AssertionError("pushdown has summands outside the twist orbit")
    return [(chi, parts[k]) for chi, (k, _) in zip(chars.characters, hits)]


def decompose_pushdown(pres: SkewPresentation, M: Representation) -> StableDecomposition:
    """For G_M = G: F_lambda M as its `twist_orbit_summands`, with the
    support/arrow partition of the constructive proof alongside."""
    ctx = pres.context
    act, G = ctx.action, ctx.group
    if len(module_stabilizer(act, M)) != G.n:
        raise ValueError("decompose_pushdown requires a stable module")
    ordered = twist_orbit_summands(pres, pushdown_module(pres, M).rep)

    q = ctx.algebra.quiver
    live = [arr for a, arr in enumerate(q.arrows) if np.any(M.maps[a])]
    fixed = {v for v in range(q.n_vertices) if len(act.vertex_stabilizer(v)) == G.n}
    # S'2 and S''2: the ends of nonzero arrows between fixed and moved vertices
    meets = {v for arr in live if (arr.source in fixed) != (arr.target in fixed)
             for v in (arr.source, arr.target)}
    support = {key: [q.vertices[v] for v in range(q.n_vertices) if M.dims[v] > 0
                     and (v in fixed) == f and (v in meets) == m]
               for key, f, m in (("S'1", True, False), ("S'2", True, True),
                                 ("S''1", False, False), ("S''2", False, True))}
    arrows = {"A'1": [], "A'2": [], "A''1": [], "A''2": []}
    for arr in live:
        s, t = arr.source in fixed, arr.target in fixed
        arrows[("A'1" if t else "A'2") if s else ("A''2" if t else "A''1")].append(arr.name)
    return StableDecomposition(ordered, support, arrows)


# ---------------------------------------------------------------------------
# Sequence stabilizers
# ---------------------------------------------------------------------------

def sequence_stabilizer(action: QuiverAction, left: Representation,
                        right: Representation) -> list:
    """G_E for an almost split sequence, certified through the equivalence
    with the end-term stabilizers."""
    sM = set(map(tuple, module_stabilizer(action, left)))
    sT = set(map(tuple, module_stabilizer(action, right)))
    if sM != sT:
        raise AssertionError("end-term stabilizers differ on an AR sequence")
    return sorted(sM)
