"""Auslander-Reiten theory for representation-finite bound quiver algebras:
projectives and injectives, the translate tau as the kernel of the Nakayama
functor applied to a minimal projective presentation, almost split
sequences (pushed out along a class of Ext^1(T, tau T) in the socle under
the left End(tau T)-action, ARS V.2, and verified), AR-quiver knitting by
closure, and finite radical-power ranks of the module category.  The inverse translate tau^- M = coker(nu^- d1) comes from a
minimal injective copresentation 0 -> M -> I0 -d1-> I1, so everything is
computed over the algebra itself and no second algebra is built.

`ARToolkit` builds the P_v and I_v once and owns them, and each direct sum
of them once per vertex tuple; covers, envelopes, (co)presentations and
the Nakayama functors are its methods.

The arrows of the AR quiver are read off the meshes that knitting builds
and decomposes (an arrow that lies on two meshes is read from both, and the
readings must agree); rows of the radical powers rad^n are built only when
a rank or radical-level question asks for them.

Given a group action, knitting computes one almost split sequence and one
tau^- per G-orbit of classes.  The twist M -> gM is an exact
autoequivalence of mod A, so tau(gM) = g tau M and the sequence ending at
gM is the g-twist of the one ending at M (Reiten and Riedtmann, J. Algebra
92 (1985)); a twisted sequence is certified as a computed one is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .action import QuiverAction
from .field import (PrimeField, in_row_space, nullspace_basis, quotient_map,
                    rank, row_space, rref, solve_linear)
from .quiver import BoundAlgebra, PathWord
from .rep import (RADICAL_CUTOFF, IsoClasses, RadicalCalculator, RepMorphism,
                  Representation, Summand, combine, decompose, end_algebra,
                  end_radical, hom_basis, identity_morphism, sub_from_rows,
                  twist, twist_morphism, zero_morphism)


class CapExceededError(Exception):
    """Knitting passed the configured module-count or dimension cap."""


# ---------------------------------------------------------------------------
# Basic module constructions
# ---------------------------------------------------------------------------

def simple_module(alg: BoundAlgebra, v: int) -> Representation:
    dims = [1 if u == v else 0 for u in range(alg.quiver.n_vertices)]
    return Representation(alg, dims, [None] * alg.quiver.n_arrows)


def simple_modules(alg: BoundAlgebra) -> list[Representation]:
    return [simple_module(alg, v) for v in range(alg.quiver.n_vertices)]


def _paths_from(alg: BoundAlgebra, v: int) -> list[list[int]]:
    """Basis indices of the paths v -> u, grouped by u, in basis order."""
    blocks = alg.basis_by_blocks
    return [list(blocks.get((u, v), ())) for u in range(alg.quiver.n_vertices)]


def _paths_to(alg: BoundAlgebra, v: int) -> list[list[int]]:
    """Basis indices of the paths u -> v, grouped by u, in basis order."""
    blocks = alg.basis_by_blocks
    return [list(blocks.get((v, u), ())) for u in range(alg.quiver.n_vertices)]


def _offsets(path_groups: list[list[list[int]]]) -> list[list[int]]:
    """Per summand P_v or I_v of a direct sum, given by its paths per
    vertex, its first coordinate at each vertex."""
    run = [0] * len(path_groups[0]) if path_groups else []
    offs = []
    for paths in path_groups:
        offs.append(run)
        run = [r + len(p) for r, p in zip(run, paths)]
    return offs


def _mult_block(alg: BoundAlgebra, x: np.ndarray, rows: list[int],
                cols: list[int], left: bool) -> np.ndarray:
    """The block, on the basis indices `rows` x `cols`, of the matrix of
    y -> x y (left) or y -> y x."""
    F = alg.F
    r, c, vals = alg.structure.mult_entries(x, left)
    rpos, cpos = np.full(alg.dim, -1), np.full(alg.dim, -1)
    rpos[rows], cpos[cols] = np.arange(len(rows)), np.arange(len(cols))
    keep = (rpos[r] >= 0) & (cpos[c] >= 0)
    m = F.zeros(len(rows), len(cols))
    np.add.at(m, (rpos[r[keep]], cpos[c[keep]]), vals[keep])
    return m % F.p


def projective_module(alg: BoundAlgebra, v: int) -> Representation:
    """P_v = Lambda e_v: space at u spanned by the normal-form basis paths
    v -> u, an arrow a acting by p -> a p."""
    paths = _paths_from(alg, v)
    return Representation(alg, [len(p) for p in paths], [
        _mult_block(alg, alg.unit_vector(PathWord(arr.source, (a,))),
                    paths[arr.target], paths[arr.source], left=True)
        for a, arr in enumerate(alg.quiver.arrows)])


def projective_modules(alg: BoundAlgebra) -> list[Representation]:
    return [projective_module(alg, v) for v in range(alg.quiver.n_vertices)]


def injective_module(alg: BoundAlgebra, v: int) -> Representation:
    """I_v = D(e_v Lambda): space at u dual to the normal-form basis paths
    u -> v, an arrow a acting by the transpose of q -> q a."""
    paths = _paths_to(alg, v)
    return Representation(alg, [len(p) for p in paths], [
        _mult_block(alg, alg.unit_vector(PathWord(arr.source, (a,))),
                    paths[arr.source], paths[arr.target], left=False).T
        for a, arr in enumerate(alg.quiver.arrows)])


def injective_modules(alg: BoundAlgebra) -> list[Representation]:
    return [injective_module(alg, v) for v in range(alg.quiver.n_vertices)]


def _sum_module(alg: BoundAlgebra, reps: list[Representation]) -> Representation:
    """The direct sum of `reps`, without the witnesses of `direct_sum`."""
    q, F = alg.quiver, alg.F
    dims = [sum(r.dims[v] for r in reps) for v in range(q.n_vertices)]
    return Representation(alg, dims, [
        F.block_diag([r.maps[a] for r in reps], (dims[arr.target], dims[arr.source]))
        for a, arr in enumerate(q.arrows)])


def direct_sum(alg: BoundAlgebra, reps: list[Representation]):
    """(sum, inclusions, projections); at each vertex the witnesses of a
    summand are copies of its column and row blocks of the identity."""
    total = _sum_module(alg, reps)
    eyes = [alg.F.eye(d) for d in total.dims]
    starts = np.cumsum([[0] * len(eyes)] + [r.dims for r in reps], axis=0)
    cuts = [[slice(o, o + d) for o, d in zip(s, r.dims)] for s, r in zip(starts, reps)]
    return (total,
            [RepMorphism(r, total, [e[:, c].copy() for e, c in zip(eyes, cs)])
             for r, cs in zip(reps, cuts)],
            [RepMorphism(total, r, [e[c].copy() for e, c in zip(eyes, cs)])
             for r, cs in zip(reps, cuts)])


# ---------------------------------------------------------------------------
# Sub / quotient constructions with witnesses
# ---------------------------------------------------------------------------

def kernel_subrep(f: RepMorphism):
    """(K, inclusion K -> source)."""
    F = f.source.F
    rows = [nullspace_basis(F, b) for b in f.blocks]
    return sub_from_rows(f.source, rows)


def cokernel_rep(f: RepMorphism):
    """(C, projection target -> C)."""
    N = f.target
    F, q = N.F, N.algebra.quiver
    proj_blocks = []
    for v in range(q.n_vertices):
        img = row_space(F, f.blocks[v].T)
        proj_blocks.append(quotient_map(F, img, N.dims[v]))
    dims = [b.shape[0] for b in proj_blocks]
    sections = {}  # per source vertex, one section of its onto proj_s
    maps = []
    for a, arr in enumerate(q.arrows):
        s, t = arr.source, arr.target
        if dims[s] == 0 or dims[t] == 0:
            maps.append(F.zeros(dims[t], dims[s]))
            continue
        # C(a) proj_s = proj_t N(a), so C(a) = proj_t N(a) sec for any section
        if s not in sections:
            sections[s] = solve_linear(F, proj_blocks[s], F.eye(dims[s]))
        maps.append(F.mul(proj_blocks[t], F.mul(N.maps[a], sections[s])))
    C = Representation(N.algebra, dims, maps)
    proj = RepMorphism(N, C, proj_blocks)
    if not proj.is_valid():
        raise AssertionError("cokernel projection fails commutation")
    return C, proj


# ---------------------------------------------------------------------------
# Projective covers and injective envelopes, (co)presentations, tau both ways
# ---------------------------------------------------------------------------

def _oriented(A: Representation, B: Representation, blocks, dual: bool) -> RepMorphism:
    """A -> B with `blocks`, or (dual) B -> A with their transposes."""
    return RepMorphism(B, A, [b.T for b in blocks]) if dual else RepMorphism(A, B, blocks)


def _free_columns(M: Representation, dual: bool) -> list[list[int]]:
    """Per vertex v: the non-pivot columns of the transposed maps of the
    arrows into v, or (dual) of the maps of the arrows out of v, stacked."""
    F, q = M.F, M.algebra.quiver
    out = []
    for v in range(q.n_vertices):
        arrows = q.arrows_from(v) if dual else q.arrows_into(v)
        pieces = [M.maps[a] if dual else M.maps[a].T for a in arrows if M.maps[a].size]
        piv = rref(F, np.concatenate(pieces, axis=0))[1] if pieces else []
        out.append([c for c in range(M.dims[v]) if c not in piv])
    return out


def top_generators(M: Representation):
    """Per vertex: unit-vector representatives of M / rad M."""
    return _free_columns(M, dual=False)


def socle_cogenerators(M: Representation):
    """Per vertex: unit functionals whose restrictions to soc M (the common
    kernel of the arrows out of the vertex) form a basis of D soc M."""
    return _free_columns(M, dual=True)


class Resolution(NamedTuple):
    """The first two terms of a minimal projective presentation
    P1 -d1-> P0 -d0-> M -> 0, or (dual) injective copresentation
    0 -> M -d0-> I0 -d1-> I1.

    X0 is P0 (I0), whose summands sit at `verts0` and X1's at `verts1`;
    z: Z -> P0 is the kernel of d0 (z: I0 -> Z its cokernel).  The
    component of d1 between summand k of X0 and summand l of X1 is given by
    the algebra element elements[k][l], read off d1 at the trivial path of
    summand l, x = verts1[l]: the image of e_x, a combination of the paths
    verts0[k] -> x; dually the row at e_x, a functional on
    I_{verts0[k]}(x), so a combination of the paths x -> verts0[k]."""
    verts0: list[int]
    verts1: list[int]
    elements: list[list[np.ndarray]]
    X0: Representation
    d0: RepMorphism
    Z: Representation
    z: RepMorphism


class ARToolkit:
    """The projectives, injectives and simples of an algebra, built once
    here and read by everything that needs them: projective covers and
    injective envelopes, minimal (co)presentations, and tau both ways over
    the algebra itself: tau M = ker(nu d1) on a minimal projective
    presentation, tau^- M = coker(nu^- d1) on a minimal injective
    copresentation 0 -> M -> I0 -d1-> I1.

    Each injective construction is the transpose of its projective one,
    chosen by `dual`: I_v and P_v swap, and so do the paths to and from v."""

    def __init__(self, alg: BoundAlgebra):
        self.alg = alg
        self.projectives = projective_modules(alg)
        self.injectives = injective_modules(alg)
        self.simples = simple_modules(alg)
        self._sums: dict[tuple[bool, tuple[int, ...]], Representation] = {}

    def _sum(self, injective: bool, verts: list[int]) -> Representation:
        """The direct sum of the I_v (or P_v) over `verts`, built once per
        vertex tuple."""
        key = (injective, tuple(verts))
        if key not in self._sums:
            modules = self.injectives if injective else self.projectives
            self._sums[key] = _sum_module(self.alg, [modules[v] for v in verts])
        return self._sums[key]

    def _hull(self, M: Representation, dual: bool):
        """(P0, the cover P0 -> M, vertex of each summand), or (dual) the
        same for the injective envelope M -> I0.  The component at top
        generator g sends a basis path p: v -> u to M(p) g; the one at socle
        cogenerator c sends m in M(u) to the functional q -> (M(q) m)_c on
        the paths q: u -> v."""
        alg = self.alg
        F, q = alg.F, alg.quiver
        paths_of = _paths_to if dual else _paths_from
        picks = [(v, g) for v, gs in enumerate(_free_columns(M, dual)) for g in gs]
        H = self._sum(dual, [v for v, _ in picks])
        paths = [paths_of(alg, v) for v, _ in picks]
        blocks = [F.zeros(M.dims[u], H.dims[u]) for u in range(q.n_vertices)]
        for (_, g), ps, off in zip(picks, paths, _offsets(paths)):
            for u in range(q.n_vertices):
                for i, k in enumerate(ps[u]):
                    pm = M.path_matrix(alg.basis[k])
                    blocks[u][:, off[u] + i] = (pm.T if dual else pm)[:, g]
        f = _oriented(H, M, blocks, dual)
        if not f.is_valid():
            raise AssertionError("projective cover or injective envelope fails commutation")
        if any(rank(F, b) != d for b, d in zip(blocks, M.dims)):
            raise AssertionError("cover not surjective or envelope not injective")
        return H, f, [v for v, _ in picks]

    def _resolve(self, M: Representation, dual: bool) -> Resolution:
        """The minimal presentation, or (dual) copresentation, of M."""
        alg = self.alg
        X0, d0, verts0 = self._hull(M, dual)
        Z, z = cokernel_rep(d0) if dual else kernel_subrep(d0)
        _, dz, verts1 = self._hull(Z, dual)
        d1 = dz.compose(z) if dual else z.compose(dz)
        paths_of = _paths_to if dual else _paths_from
        paths0 = [paths_of(alg, v) for v in verts0]
        paths1 = [paths_of(alg, v) for v in verts1]
        off0, off1 = _offsets(paths0), _offsets(paths1)
        elements = [[None] * len(verts1) for _ in range(len(verts0))]
        for l, x in enumerate(verts1):
            trivial = [alg.basis[k].is_trivial() for k in paths1[l][x]].index(True)
            img = (d1.blocks[x].T if dual else d1.blocks[x])[:, off1[l][x] + trivial]
            for k in range(len(verts0)):
                ys = paths0[k][x]
                elem = alg.F.zeros(1, alg.dim)[0]
                elem[ys] = img[off0[k][x]: off0[k][x] + len(ys)]
                elements[k][l] = elem
        return Resolution(verts0, verts1, elements, X0, d0, Z, z)

    def minimal_presentation(self, M: Representation) -> Resolution:
        """P1 -> P0 -> M -> 0 with minimal covers."""
        return self._resolve(M, dual=False)

    def minimal_copresentation(self, M: Representation) -> Resolution:
        """0 -> M -> I0 -> I1 with minimal envelopes."""
        return self._resolve(M, dual=True)

    def _nakayama(self, resolution: Resolution, dual: bool) -> RepMorphism:
        """nu d1: (+) I_x over verts1 -> (+) I_y over verts0 for a minimal
        presentation, or (dual) nu^- d1: (+) P_y over verts0 -> (+) P_x over
        verts1 for a minimal copresentation (nu P_x = I_x, nu^- I_x = P_x).
        The component given by a becomes, at u, the transpose of q -> a q on
        the paths u -> y, or (dual) p -> p a on the paths y -> u.  The terms
        of each a's multiplication matrix are found once and placed at the
        coordinates of their paths in the two sums; a term keeps the vertex
        u of its path, as products of paths keep their ends."""
        alg, F = self.alg, self.alg.F
        paths_of = _paths_from if dual else _paths_to
        sides = []  # (sum, vertex starts, per summand the coordinate of each path)
        for verts in (resolution.verts0, resolution.verts1):
            S = self._sum(not dual, verts)
            groups = [paths_of(alg, v) for v in verts]
            starts, coords = np.cumsum((0, *S.dims)), []
            for ps, off in zip(groups, _offsets(groups)):
                coords.append(np.full(alg.dim, -1))
                for u, p in enumerate(ps):
                    coords[-1][p] = starts[u] + off[u] + np.arange(len(p))
            sides.append((S, starts, coords))
        (S0, starts0, rows), (S1, starts1, cols) = sides
        total = F.zeros(S0.total_dim, S1.total_dim)
        for row, elements in zip(rows, resolution.elements):
            for col, a in zip(cols, elements):
                r, c, vals = alg.structure.mult_entries(a, not dual)
                keep = (row[c] >= 0) & (col[r] >= 0)
                np.add.at(total, (row[c[keep]], col[r[keep]]), vals[keep])
        blocks = [total[starts0[u]: starts0[u + 1], starts1[u]: starts1[u + 1]] % F.p
                  for u in range(alg.quiver.n_vertices)]
        f = _oriented(S1, S0, blocks, dual)
        if not f.is_valid():
            raise AssertionError("Nakayama image of the (co)presentation fails commutation")
        return f

    def tau_from_presentation(self, presentation: Resolution) -> Representation:
        """tau M = ker(nu P1 -> nu P0), the Nakayama functor applied to the
        minimal presentation of M (Assem-Simson-Skowronski I, IV.2.4);
        P1 = 0 gives 0."""
        return kernel_subrep(self._nakayama(presentation, dual=False))[0]

    def tau_minus(self, M: Representation) -> Representation:
        return cokernel_rep(self._nakayama(self.minimal_copresentation(M), dual=True))[0]

    def is_projective(self, M: Representation) -> bool:
        """The projective cover is an isomorphism."""
        return M.total_dim == sum(len(g) * P.total_dim for g, P in
                                  zip(top_generators(M), self.projectives))

    def is_injective(self, M: Representation) -> bool:
        """The injective envelope is an isomorphism."""
        return M.total_dim == sum(len(c) * I.total_dim for c, I in
                                  zip(socle_cogenerators(M), self.injectives))


# ---------------------------------------------------------------------------
# Almost split sequences
# ---------------------------------------------------------------------------

@dataclass
class AlmostSplitSequence:
    left: Representation                 # tau T
    middle: Representation
    right: Representation                # T
    incl: RepMorphism                    # left -> middle
    proj: RepMorphism                    # middle -> right
    middle_summands: list[Summand] = dc_field(default_factory=list)

    def dims_check(self) -> bool:
        return all(l + r == m for l, r, m in
                   zip(self.left.dims, self.right.dims, self.middle.dims))


def _composites(F: PrimeField, stacks, before: RepMorphism | None = None,
                after: RepMorphism | None = None) -> np.ndarray:
    """The morphism vectors of after o b o before, as rows, over the Hom
    basis b whose per-vertex stacks are `stacks`: one product per vertex
    and side, each on a whole stack."""
    parts = []
    for v, S in enumerate(stacks):
        if after is not None:
            S = F.mul(after.blocks[v], S)
        if before is not None:
            S = F.mul(S, before.blocks[v])
        parts.append(S.reshape(len(S), S.shape[1] * S.shape[2]))
    return np.concatenate(parts, axis=1)


def almost_split_sequence(tk: ARToolkit, T: Representation) -> AlmostSplitSequence:
    """The AR sequence 0 -> tau T -> E -> T -> 0 for indecomposable
    non-projective T: the pushout along K -> P0 of h: K -> tau T spanning
    the socle of Ext^1(T, tau T) = Hom(K, tau T)/W under the left
    End(tau T)-action, which is the socle under the right End(T)-action
    (Auslander-Reiten-Smalø, Representation Theory of Artin Algebras, V.2)
    and needs no lift through P0.  Exactness and the non-split property are
    verified here; the factorization property, which needs every
    indecomposable, is checked by `verify_almost_split` in
    `tests/oracle_paper.py`."""
    alg = tk.alg
    F, q = alg.F, alg.quiver
    if tk.is_projective(T):
        raise ValueError("almost split sequence requires non-projective right term")
    # tau T from the presentation whose cover the pushout reuses
    pres = tk.minimal_presentation(T)
    X = tk.tau_from_presentation(pres)
    P0, d0, K, incl = pres.X0, pres.d0, pres.Z, pres.z
    W = row_space(F, _composites(F, hom_basis(P0, X).stacks, before=incl))
    h = _socle_class(X, W, hom_basis(K, X).basis)

    # pushout of X <-h- K -incl-> P0
    XP, incls, projs = direct_sum(alg, [X, P0])
    glue = RepMorphism(K, XP, [
        np.concatenate([h.blocks[v], (-incl.blocks[v]) % F.p], axis=0)
        for v in range(q.n_vertices)])
    if not glue.is_valid():
        raise AssertionError("pushout glue fails commutation")
    Emod, eproj = cokernel_rep(glue)
    left_map = eproj.compose(incls[0])
    # E -> T induced by d0 on the P0 part
    toT = d0.compose(projs[1])
    right_blocks = []
    for v in range(q.n_vertices):
        sol = solve_linear(F, eproj.blocks[v].T, toT.blocks[v].T)
        if sol is None:
            raise AssertionError("projection to T does not factor through E")
        right_blocks.append(sol.T)
    right_map = RepMorphism(Emod, T, right_blocks)
    if not right_map.is_valid():
        raise AssertionError("induced map E -> T fails commutation")

    seq = AlmostSplitSequence(X, Emod, T, left_map, right_map)
    _certify(seq)
    seq.middle_summands = decompose(Emod)
    return seq


def twisted_sequence(action: QuiverAction, g, seq: AlmostSplitSequence,
                     u: RepMorphism) -> AlmostSplitSequence:
    """The g-twist of the almost split sequence `seq` ending at T, its right
    end carried along the isomorphism u: gT -> T'.  Twisting by g is an
    exact autoequivalence of mod A, so it sends almost split sequences to
    almost split sequences, and tau(gT) = g tau T (Reiten and Riedtmann,
    J. Algebra 92 (1985)).  The result is certified as
    `almost_split_sequence` certifies its own, and its middle summands are
    the twists of those of `seq`, sorted as `decompose` sorts them, each
    indecomposable as its untwisted summand is."""
    X = twist(action, g, seq.left, indecomposable=True)
    E = twist(action, g, seq.middle)
    incl = twist_morphism(action, g, seq.incl, X, E)
    proj = u.compose(twist_morphism(action, g, seq.proj, E, u.source))
    if not (incl.is_valid() and proj.is_valid()):
        raise AssertionError("twisted sequence maps fail commutation")
    out = AlmostSplitSequence(X, E, u.target, incl, proj)
    _certify(out)
    for s in seq.middle_summands:
        S = twist(action, g, s.rep, indecomposable=True)
        out.middle_summands.append(Summand(
            S, twist_morphism(action, g, s.inclusion, S, E),
            twist_morphism(action, g, s.projection, E, S)))
    out.middle_summands.sort(key=lambda s: (s.rep.dims, s.rep.label()))
    return out


def _socle_class(X: Representation, W: np.ndarray,
                 candidates: list[RepMorphism]) -> RepMorphism:
    """h: K -> X outside W that rad End(X) sends into W from the left: the
    first candidate outside W, replaced by phi h while a rad End(X) basis
    element phi keeps it outside.  After k steps h lies in rad^k applied to
    the candidate; rad End(X) is nilpotent, so this ends within dim End(X)."""
    F = X.F

    def first_outside(maps):
        return next((f for f in maps if not in_row_space(F, W, f.to_vector())),
                    None)

    h = first_outside(candidates)
    if h is None:
        raise AssertionError("Ext^1(T, tau T) computed zero; tau must be wrong")
    _, H = end_algebra(X)
    radical = [combine(H, r) for r in end_radical(X)]
    for _ in range(H.dimension):
        lower = first_outside(phi.compose(h) for phi in radical)
        if lower is None:
            return h
        h = lower
    raise AssertionError("rad End(tau T) descent did not end")


def split_section(proj: RepMorphism) -> RepMorphism | None:
    """A section s of proj: E -> T (proj s = 1_T), or None if there is none.

    A short exact sequence ending in proj splits iff the section exists,
    i.e. iff 1_T lies in the span of proj g over g in Hom(T, E): one hom
    basis and one linear solve certify that the sequence does not split.
    """
    E, T = proj.source, proj.target
    if T.is_zero():
        return zero_morphism(T, E)
    H = hom_basis(T, E)
    if not H.dimension:
        return None
    A = _composites(T.F, H.stacks, after=proj).T
    one = identity_morphism(T).to_vector().reshape(-1, 1)
    coeffs = solve_linear(T.F, A, one)
    return None if coeffs is None else combine(H, coeffs[:, 0])


def _certify(seq: AlmostSplitSequence):
    """Exactness, and the certificate that the sequence does not split."""
    _check_exact(seq)
    if split_section(seq.proj) is not None:
        raise AssertionError("almost split sequence candidate splits")


def _check_exact(seq: AlmostSplitSequence):
    F = seq.left.F
    if not seq.dims_check():
        raise AssertionError("sequence dimension vectors do not add up")
    for v in range(len(seq.left.dims)):
        if rank(F, seq.incl.blocks[v]) != seq.left.dims[v]:
            raise AssertionError("left map not injective")
        if rank(F, seq.proj.blocks[v]) != seq.right.dims[v]:
            raise AssertionError("right map not surjective")
        comp = F.mul(seq.proj.blocks[v], seq.incl.blocks[v])
        if np.any(comp):
            raise AssertionError("composite of sequence maps nonzero")


# ---------------------------------------------------------------------------
# Knitting: complete indecomposable list + AR quiver
# ---------------------------------------------------------------------------

@dataclass
class ARQuiver:
    algebra: BoundAlgebra
    modules: list[Representation]
    arrows: dict[tuple[int, int], int]          # (source, target) -> multiplicity
    tau_map: dict[int, int]                      # right term -> left term index
    sequences: dict[int, AlmostSplitSequence]    # keyed by right term index
    projective_flags: list[bool]
    injective_flags: list[bool]
    calc: RadicalCalculator


class _Twists:
    """The twists gM, g != e, of each module whose almost split sequence or
    tau^- the knit computed itself, with the index of M and g."""

    def __init__(self, action: QuiverAction):
        self.action = action
        self.classes = IsoClasses()
        self.origins: list[tuple[int, tuple]] = []

    def record(self, i: int, M: Representation):
        for g in self.action.group.elements:
            gM = twist(self.action, g, M)
            if gM.content_key != M.content_key:   # g = e among those left out
                self.classes.append(gM)
                self.origins.append((i, g))

    def locate(self, M: Representation):
        """(i, g, u: gM_i -> M an isomorphism) for a recorded M_i, or None."""
        found = self.classes.locate(M)
        return None if found is None else (*self.origins[found[0]], found[1])


def knit_ar_quiver(alg: BoundAlgebra, max_modules: int = 500,
                   max_dimension: int = 60,
                   action: QuiverAction | None = None) -> ARQuiver:
    """Closure knitting: start from projectives, injectives, and simples;
    repeatedly adjoin tau / tau-minus targets and AR-sequence middle
    summands until stable.  Complete for representation-finite algebras.

    Given a validated `action` of G on the algebra, the knit computes one
    almost split sequence and one tau^- per G-orbit of classes: a module
    M' isomorphic to a twist gM of a module M it has already handled gets
    the g-twist of M's sequence (`twisted_sequence`) and g tau^- M.  The
    modules, their order and every mesh are those of the knit without it."""
    tk = ARToolkit(alg)
    known = IsoClasses()
    proj_flags: list[bool] = []
    inj_flags: list[bool] = []

    def add(M: Representation):
        if M.is_zero():
            return None
        if M.total_dim > max_dimension:
            raise CapExceededError(
                f"module of total dimension {M.total_dim} exceeds cap {max_dimension}")
        found = known.locate(M)
        if found is not None:
            return found[0]
        # summands are indecomposable; a sole summand is M, looked up above
        parts = decompose(M)
        for s in parts:
            if len(parts) == 1 or known.locate(s.rep) is None:
                known.append(s.rep)
                if len(known) > max_modules:
                    raise CapExceededError(f"more than {max_modules} indecomposables")
                proj_flags.append(tk.is_projective(s.rep))
                inj_flags.append(tk.is_injective(s.rep))
        return len(known) - 1 if len(parts) == 1 else None

    for P in tk.projectives:
        add(P)
    for I in tk.injectives:
        add(I)
    for S in tk.simples:
        add(S)

    sequences: dict[int, AlmostSplitSequence] = {}
    tau_of: dict[int, int] = {}
    right_of: dict[int, int] = {}        # tau T -> T
    tau_minus_of: dict[int, Representation] = {}
    middles: dict[int, Counter] = {}     # middle-term summand multiplicities
    twists = None if action is None else _Twists(action)
    i = 0
    while i < len(known):                # each class once, in insertion order
        M = known.reps[i]
        # M = tau T for a processed T needs no tau^-: add() would only locate T
        if not proj_flags[i] or not (inj_flags[i] or i in right_of):
            hit = None if twists is None else twists.locate(M)
            if hit is None and twists is not None:
                twists.record(i, M)
            if not proj_flags[i]:
                seq = (almost_split_sequence(tk, M) if hit is None else
                       twisted_sequence(action, hit[1], sequences[hit[0]], hit[2]))
                sequences[i] = seq
                tau_of[i] = add(seq.left)
                if tau_of[i] is None:
                    raise AssertionError("tau of an indecomposable is not indecomposable")
                right_of.setdefault(tau_of[i], i)
                middles[i] = Counter(add(s.rep) for s in seq.middle_summands)
            if not inj_flags[i] and i not in right_of:
                if hit is None:
                    Y = tau_minus_of[i] = tk.tau_minus(M)
                else:
                    # tau^- M_o is the one built for M_o, or the T with tau T = M_o
                    o, g, _ = hit
                    Y = twist(action, g, tau_minus_of[o] if o in tau_minus_of
                              else known.reps[right_of[o]], indecomposable=True)
                add(Y)
        i += 1

    # canonical order
    order = sorted(range(len(known)), key=lambda i: (known.reps[i].total_dim,
                                                     known.reps[i].dims,
                                                     known.reps[i].label()))
    perm = {old: new for new, old in enumerate(order)}
    modules = [known.reps[i] for i in order]
    seqs = {perm[i]: s for i, s in sequences.items()}
    tau_map = {perm[i]: perm[l] for i, l in tau_of.items()}

    # An arrow X -> Y lies on the mesh ending at Y, or, when Y is projective
    # (then X -> Y is a non-split mono, so X is not injective), on the mesh
    # starting at X.  With End/rad = F_p for every module, its multiplicity
    # is that of X (resp. Y) in the middle term, read both ways here.
    arrows: dict[tuple[int, int], int] = {}

    def arrow(key: tuple[int, int], mult: int):
        if arrows.setdefault(key, mult) != mult:
            raise AssertionError(f"meshes disagree on the AR arrow {key}")

    for t, counts in middles.items():
        for x, mult in counts.items():
            arrow((perm[x], perm[t]), mult)
            arrow((perm[tau_of[t]], perm[x]), mult)
    arrows = dict(sorted(arrows.items()))
    proj_flags = [proj_flags[i] for i in order]
    inj_flags = [inj_flags[i] for i in order]
    return ARQuiver(alg, modules, arrows, tau_map, seqs, proj_flags, inj_flags,
                    RadicalCalculator(modules))


# ---------------------------------------------------------------------------
# Rank of the module category
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankValue:
    finite: bool
    value: int

    def __str__(self):
        return str(self.value) if self.finite else f">= {self.value}"


def category_rank(arq: ARQuiver) -> tuple[RankValue, RankValue]:
    """(rank, stable rank) of mod A over the knitted list: the first n with
    rad^n = 0, tested on the rows of the projectives P_a alone.  A nonzero
    f in rad^n(X, Y) with f(x) != 0 for some x in X(a) gives the nonzero
    f o g in rad^n(P_a, Y), where g(e_a) = x.  A closed knit means A is
    representation-finite (Auslander, Comm. Algebra 1 (1974)), so rad is
    nilpotent, rad^n = rad^{n+1} only where rad^n = 0, and the stable rank
    is the rank.  Both are cut off at RADICAL_CUTOFF."""
    calc, m = arq.calc, len(arq.modules)
    projectives = [a for a, p in enumerate(arq.projective_flags) if p]
    for n in range(1, RADICAL_CUTOFF + 1):
        if not any(calc.rad_dim(a, j, n) for a in projectives for j in range(m)):
            value = RankValue(True, n)
            return value, value
    cut = RankValue(False, RADICAL_CUTOFF)
    return cut, cut


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def ar_quiver_dot(arq: ARQuiver) -> str:
    lines = ["digraph ar_quiver {", '  rankdir="LR";']
    for i, m in enumerate(arq.modules):
        flags = ""
        if arq.projective_flags[i]:
            flags += "P"
        if arq.injective_flags[i]:
            flags += "I"
        label = m.label() + (f" [{flags}]" if flags else "")
        lines.append(f'  n{i} [label="{label}"];')
    for (i, j), mult in sorted(arq.arrows.items()):
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{i} -> n{j}{attr};")
    for t, l in sorted(arq.tau_map.items()):
        lines.append(f"  n{t} -> n{l} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines)
