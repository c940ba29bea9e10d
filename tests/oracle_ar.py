"""The translate the package computed before it used the Nakayama functor:
tau M = D Tr M, with the transpose Tr M taken over the opposite algebra as
the cokernel of the dual of the minimal presentation, each component moved
into the opposite algebra's basis.  Injectives were duals of the opposite
algebra's projectives, and projectives were built from normal forms one
path at a time.  The opposite algebra and the linear dual are kept here
with them, as is the summand scan that decided whether a module is
projective or injective.  Kept as an oracle for
`ar.ARToolkit.tau_from_presentation`, `tau_minus`, `is_projective` and
`is_injective`, and for the projective and injective modules.

`right_socle_class` is the socle class of Ext^1(T, tau T) that
`ar.almost_split_sequence` chose under the right End(T)-action, from lifts
of rad End(T) through the projective cover and a stacked nullspace system;
kept as an oracle for `ar._socle_class`.

`LayerRadicalCalculator` is the radical calculator that grew rad^n one
layer at a time over every ordered pair of the list, rad^1 first, and
`layer_category_rank` the rank loop that compared the dimension tuples of
successive layers to find the stable rank; kept as oracles for the
per-row growth of `rep.RadicalCalculator` and for `ar.category_rank`.
"""

import numpy as np

from skewcover.ar import (ARQuiver, ARToolkit, RankValue, _offsets,
                          _paths_from, cokernel_rep, direct_sum)
from skewcover.field import (in_row_space, nullspace_basis, row_space,
                             solve_linear)
from skewcover.quiver import (BoundAlgebra, PathWord, Quiver, RelationElement,
                              path_target)
from skewcover.rep import (RADICAL_CUTOFF, HomSpace, IsoClasses,
                           RadicalCalculator, RepMorphism, Representation,
                           _pair_len, combine, decompose, end_radical,
                           hom_basis, morphism_from_vector)

from oracle_paper import _span


def opposite(alg: BoundAlgebra) -> BoundAlgebra:
    """The opposite algebra: arrows reversed, relation words reversed."""
    q = alg.quiver
    qop = Quiver(
        list(q.vertices),
        [(a.name, q.vertices[a.target], q.vertices[a.source]) for a in q.arrows],
    )
    rels = []
    for r in alg.relations:
        terms = []
        for c, w in r.terms:
            terms.append((c, PathWord(path_target(q, w), tuple(reversed(w.arrows)))))
        rels.append(RelationElement(tuple(terms)))
    return BoundAlgebra(alg.F, qop, rels, alg.length_bound)


def dual_rep(alg: BoundAlgebra, M: Representation) -> Representation:
    """The linear dual of M as a module over alg, the opposite of M's algebra
    (same vertex/arrow order, reversed directions, transposed maps)."""
    return Representation(alg, M.dims, [m.T.copy() for m in M.maps])


def summands_in(M: Representation, classes: IsoClasses) -> bool:
    """Every Krull-Schmidt summand of M is isomorphic to one of `classes`."""
    return all(classes.locate(s.rep) is not None for s in decompose(M))


def projective_module(alg: BoundAlgebra, v: int) -> Representation:
    """P_v: space at u spanned by normal-form basis paths v -> u, arrows
    acting by post-composition and normal form."""
    q = alg.quiver
    paths = _paths_from(alg, v)
    dims = [len(p) for p in paths]
    pos = {k: i for p in paths for i, k in enumerate(p)}
    maps = []
    for a, arr in enumerate(q.arrows):
        m = alg.F.zeros(dims[arr.target], dims[arr.source])
        for k in paths[arr.source]:
            nw = PathWord(v, (a,) + alg.basis[k].arrows)
            for k2, c in alg.nf.get(nw, {}).items():
                m[pos[k2], pos[k]] = c
        maps.append(m)
    return Representation(alg, dims, maps)


def injective_module(alg: BoundAlgebra, alg_op: BoundAlgebra, v: int) -> Representation:
    return dual_rep(alg, projective_module(alg_op, v))


def _morphism_between_projectives(alg: BoundAlgebra, px: list[list[int]],
                                  py: list[list[int]],
                                  elem: np.ndarray) -> list[np.ndarray]:
    """Per-vertex blocks of the morphism P_x -> P_y determined by an element
    of P_y(x), i.e. a combination of basis paths y -> x; sends p to
    p o elem.  `px` and `py` are `_paths_from(alg, x)` and `(alg, y)`."""
    blocks = []
    for u in range(alg.quiver.n_vertices):
        m = alg.F.zeros(len(py[u]), len(px[u]))
        for col, k in enumerate(px[u]):
            m[:, col] = alg.multiply(alg.unit_vector(alg.basis[k]), elem)[py[u]]
        blocks.append(m)
    return blocks


def _reverse_element(alg: BoundAlgebra, alg_op: BoundAlgebra,
                     vec: np.ndarray) -> np.ndarray:
    """Transport an element along the anti-isomorphism alg -> alg_op by
    reversing basis paths and renormalizing."""
    F = alg.F
    out = F.zeros(1, alg_op.dim)[0]
    for k in np.nonzero(vec % F.p)[0]:
        w = alg.basis[int(k)]
        if w.is_trivial():
            rw = w
        else:
            rw = PathWord(path_target(alg.quiver, w), tuple(reversed(w.arrows)))
        nf = alg_op.nf.get(rw)
        if nf is None:
            raise AssertionError("reversed basis path missing from opposite algebra")
        for k2, c in nf.items():
            out[k2] = (out[k2] + int(vec[k]) * c) % F.p
    return out


def transpose(alg: BoundAlgebra, alg_op: BoundAlgebra, presentation) -> Representation:
    """Tr M over the opposite algebra, from the minimal presentation of M
    that `ARToolkit.minimal_presentation` returns: the cokernel of the dual map
    Q0 = (+)_k P^op_{verts0[k]} -> Q1 = (+)_l P^op_{verts1[l]}, each
    component placed straight into its block."""
    verts0, verts1, elements, *_ = presentation
    if not verts1:
        # M projective-presented with P1 = 0: Tr M = 0
        return Representation(alg_op, [0] * alg.quiver.n_vertices,
                              [None] * alg.quiver.n_arrows)
    Q0 = direct_sum(alg_op, [projective_module(alg_op, v) for v in verts0])[0]
    Q1 = direct_sum(alg_op, [projective_module(alg_op, v) for v in verts1])[0]
    by_vertex = {v: _paths_from(alg_op, v) for v in {*verts0, *verts1}}
    off0 = _offsets([by_vertex[v] for v in verts0])
    off1 = _offsets([by_vertex[v] for v in verts1])
    blocks = [alg.F.zeros(Q1.dims[u], Q0.dims[u])
              for u in range(alg.quiver.n_vertices)]
    for k, v0 in enumerate(verts0):
        for l, v1 in enumerate(verts1):
            elem_op = _reverse_element(alg, alg_op, elements[k][l])
            # morphism P^op_{v0} -> P^op_{v1} given by elem_op in P^op_{v1}(v0)
            comp = _morphism_between_projectives(alg_op, by_vertex[v0],
                                                 by_vertex[v1], elem_op)
            for u, c in enumerate(comp):
                r0, c0 = off1[l][u], off0[k][u]
                blocks[u][r0: r0 + c.shape[0], c0: c0 + c.shape[1]] = c
    Astar = RepMorphism(Q0, Q1, blocks)
    if not Astar.is_valid():
        raise AssertionError("transposed presentation map fails commutation")
    TrM, _ = cokernel_rep(Astar)
    return TrM


def tau(alg: BoundAlgebra, alg_op: BoundAlgebra, M: Representation) -> Representation:
    TrM = transpose(alg, alg_op, ARToolkit(alg).minimal_presentation(M))
    return dual_rep(alg, TrM)


def tau_minus(alg: BoundAlgebra, alg_op: BoundAlgebra, M: Representation) -> Representation:
    DM = dual_rep(alg_op, M)
    return transpose(alg_op, alg, ARToolkit(alg_op).minimal_presentation(DM))


def right_socle_class(tk: ARToolkit, T: Representation):
    """(tau T, W, h) for indecomposable non-projective T: h: K -> tau T
    spans the socle of Ext^1(T, tau T) = Hom(K, tau T)/W under the right
    End(T)-action, K the syzygy of the minimal presentation of T and W the
    maps that extend to its cover P0."""
    alg = tk.alg
    F = alg.F
    pres = tk.minimal_presentation(T)
    X = tk.tau_from_presentation(pres)
    P0, d0, K, incl = pres.X0, pres.d0, pres.Z, pres.z

    homKX = hom_basis(K, X)
    if not homKX.basis:
        raise AssertionError("Ext^1(T, tau T) computed zero; tau must be wrong")
    W = _span(F, [g.compose(incl) for g in hom_basis(P0, X).basis])

    # right End(T)-action on Hom(K, X) via lifts through the cover
    H_T = hom_basis(T, T)
    radT = end_radical(T)
    homP0P0 = hom_basis(P0, P0)
    lift_actions = []
    for r in range(radT.shape[0]):
        phi = combine(H_T, radT[r])
        phi_hat = _lift_through_cover(d0, phi, homP0P0)
        # restrict to K: solve incl . psi = phi_hat . incl
        psi_blocks = [solve_linear(F, i, F.mul(h, i))
                      for i, h in zip(incl.blocks, phi_hat.blocks)]
        if any(b is None for b in psi_blocks):
            raise AssertionError("cover lift does not preserve the syzygy")
        lift_actions.append(RepMorphism(K, K, psi_blocks))

    # socle classes: nonzero [h] with [h o psi_r] = 0 for every radical
    # basis element, i.e. h o psi_r in W and h not in W
    nbasis = len(homKX.basis)
    veclen = homKX.basis[0].to_vector().shape[0]
    if lift_actions:
        totw = W.shape[0]
        width = nbasis + totw * len(lift_actions)
        sysrows = []
        for ridx, psi in enumerate(lift_actions):
            mat = np.stack([homKX.basis[i].compose(psi).to_vector()
                            for i in range(nbasis)])
            blk = F.zeros(veclen, width)
            blk[:, :nbasis] = mat.T
            if totw:
                off = nbasis + ridx * totw
                blk[:, off: off + totw] = (-W.T) % F.p
            sysrows.append(blk)
        sol_space = nullspace_basis(F, np.concatenate(sysrows, axis=0))
        candidates = (combine(homKX, sol_space[r, :nbasis]).to_vector()
                      for r in range(sol_space.shape[0]))
    else:
        # End(T) = K: the radical condition is vacuous, Ext^1 is 1-dim
        candidates = (f.to_vector() for f in homKX.basis)
    h_coords = next((hv for hv in candidates if not in_row_space(F, W, hv)),
                    None)
    if h_coords is None:
        raise AssertionError("no socle class found in Ext^1(T, tau T)")
    return X, W, morphism_from_vector(K, X, h_coords)


def _lift_through_cover(d0: RepMorphism, phi: RepMorphism,
                        homP0P0: HomSpace) -> RepMorphism:
    """phi_hat: P0 -> P0 with d0 phi_hat = phi d0 (exists, P0 projective)."""
    F = d0.source.F
    target = phi.compose(d0)  # P0 -> T
    rows = np.stack([d0.compose(g).to_vector() for g in homP0P0.basis])
    sol = solve_linear(F, rows.T, target.to_vector().reshape(-1, 1))
    if sol is None:
        raise AssertionError("no lift through projective cover")
    return combine(homP0P0, sol[:, 0])


class LayerRadicalCalculator(RadicalCalculator):
    """rad^{n+1}(M, N) = sum_Z rad^n(Z, N) . rad^1(M, Z), one layer over all
    ordered pairs at a time; `hom` is the package's.  rad^1 off the diagonal
    is stored as the Hom basis and reduced to echelon form when read.  The
    compositions are formed one (source, middle, target) triple at a time,
    by the package's former `_compose_spans`."""

    def __init__(self, reps: list[Representation]):
        self.reps = reps
        self.classes = IsoClasses(reps)
        self.F = reps[0].F if reps else None
        self._rad: list[dict[tuple[int, int], np.ndarray]] = []  # [n-1][i,j]

    def _build_rad1(self):
        F = self.F
        level: dict[tuple[int, int], np.ndarray] = {}
        for i in range(len(self.reps)):
            for j in range(len(self.reps)):
                H = self.hom(i, j)
                if not H.basis:
                    continue
                vecs = np.stack([f.to_vector() for f in H.basis], axis=0)
                if i != j:
                    level[(i, j)] = vecs
                else:
                    radb = end_radical(self.reps[i])
                    if radb.shape[0]:
                        level[(i, j)] = row_space(F, F.mul(radb, vecs))
        self._rad.append(level)

    def rad(self, i: int, j: int, n: int) -> np.ndarray:
        """Echelon row basis of rad^n(reps[i], reps[j]) as morphism vectors."""
        if n <= 0:
            H = self.hom(i, j)
            if not H.basis:
                return np.zeros((0, _pair_len(self.reps[i], self.reps[j])),
                                dtype=np.int64)
            return row_space(self.F, np.stack([f.to_vector() for f in H.basis]))
        while len(self._rad) < n:
            self._grow()
        rows = self._rad[n - 1].get(
            (i, j), np.zeros((0, _pair_len(self.reps[i], self.reps[j])), dtype=np.int64))
        return row_space(self.F, rows) if n == 1 and i != j else rows

    def rad_dim(self, i: int, j: int, n: int) -> int:
        return self.rad(i, j, n).shape[0]

    def _compose_spans(self, i: int, k: int, j: int,
                       A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """All pairwise compositions B o A, A in Hom(i, k), B in Hom(k, j),
        as stacked morphism vectors (vectorized per vertex)."""
        F = self.F
        Mi, Mk, Mj = self.reps[i], self.reps[k], self.reps[j]
        na, nb = A.shape[0], B.shape[0]
        parts = []
        offa = offb = 0
        for di, dk, dj in zip(Mi.dims, Mk.dims, Mj.dims):
            Ab = A[:, offa: offa + dk * di].reshape(na, dk, di)
            Bb = B[:, offb: offb + dj * dk].reshape(nb, dj, dk)
            prod = np.einsum("bxy,ayz->baxz", Bb, Ab) % F.p
            parts.append(prod.reshape(nb * na, dj * di))
            offa += dk * di
            offb += dj * dk
        return np.concatenate(parts, axis=1) if parts else \
            np.zeros((nb * na, 0), dtype=np.int64)

    def _grow(self):
        """Build the next radical layer, rad^1 first, on first use."""
        if not self._rad:
            self._build_rad1()
            return
        F = self.F
        prev = self._rad[-1]
        rad1 = self._rad[0]
        nxt: dict[tuple[int, int], np.ndarray] = {}
        for (i, j) in prev.keys() | rad1.keys():
            pieces = []
            for k in range(len(self.reps)):
                A = rad1.get((i, k))
                B = prev.get((k, j))
                if A is None or B is None:
                    continue
                pieces.append(self._compose_spans(i, k, j, A, B))
            if pieces:
                span = row_space(F, np.concatenate(pieces, axis=0))
                if span.shape[0]:
                    nxt[(i, j)] = span
        self._rad.append(nxt)


def layer_category_rank(arq: ARQuiver) -> tuple[RankValue, RankValue]:
    """(rank, stable rank): the first n with rad^n = 0, and the first n with
    rad^n = rad^{n+1}, over the knitted list.  Both finite for
    representation-finite algebras; cut off otherwise."""
    calc, m = LayerRadicalCalculator(arq.modules), len(arq.modules)
    prev, stable = None, None
    for n in range(1, RADICAL_CUTOFF + 1):
        dims = tuple(calc.rad_dim(i, j, n) for i in range(m) for j in range(m))
        if not any(dims):
            return RankValue(True, n), stable or RankValue(True, n)
        if dims == prev and stable is None:
            stable = RankValue(True, n - 1)
        prev = dims
    cut = RankValue(False, RADICAL_CUTOFF)
    return cut, stable or cut

