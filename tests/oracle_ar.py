"""The translate the package computed before it used the Nakayama functor:
tau M = D Tr M, with the transpose Tr M taken over the opposite algebra as
the cokernel of the dual of the minimal presentation, each component moved
into the opposite algebra's basis.  Injectives were duals of the opposite
algebra's projectives, and projectives were built from normal forms one
path at a time.  The opposite algebra and the linear dual are kept here
with them, as is the summand scan that decided whether a module is
projective or injective.  Kept as an oracle for `ar.ARToolkit.tau`,
`tau_minus`, `is_projective` and `is_injective`, and for the projective and
injective modules.
"""

import numpy as np

from skewcover.ar import (ARToolkit, _offsets, _paths_from, cokernel_rep,
                          direct_sum)
from skewcover.quiver import (BoundAlgebra, PathWord, Quiver, RelationElement,
                              path_target)
from skewcover.rep import IsoClasses, RepMorphism, Representation, decompose


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
