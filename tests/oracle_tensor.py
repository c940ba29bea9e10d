"""Independent pushdown oracle: the module KG (x) M with its left skew
algebra action, built element by element from the definition, then cut to
vertex spaces with the presentation idempotents.  This never touches the
closed-form case matrices in skewcover.pushdown, so matching matrices is a
genuine dual-route check.

`loop_tensor_relations` is the per-entry loop that the tensor `GLambda._tensor`
(now `oracle_glambda.GLambda._tensor`) used to build its relation rows with,
kept as the reference for its Kronecker blocks.
"""

import numpy as np

from skewcover.field import solve_linear
from skewcover.quiver import path_source, path_target


def left_action_matrix(pres, M, elem):
    """Matrix of a skew algebra element acting on KG (x) M.

    Basis: (g, m) flattened as index(g) * dim M + offset(m); the action is
    (lam (x) h) . ((1 (x) g) (x) m) = (1 (x) hg) (x) ((hg)^{-1} lam) m.
    """
    ctx = pres.context
    F, G, q = pres.F, ctx.group, ctx.algebra.quiver
    offs = np.cumsum([0] + list(M.dims))
    tot = M.total_dim
    dim = G.n * tot
    out = F.zeros(dim, dim)
    for i in np.nonzero(elem % F.p)[0]:
        k, gi = divmod(int(i), G.n)
        h = G.elements[gi]
        c0 = int(elem[i])
        w = ctx.algebra.basis[k]
        sv, tv = path_source(q, w), path_target(q, w)
        for gj, g in enumerate(G.elements):
            hg = G.mul(h, g)
            u = G.inv(hg)
            scal, uw = ctx.action.path(u, w)
            mat = F.zeros(M.dims[ctx.action.vertex(u, tv)],
                          M.dims[ctx.action.vertex(u, sv)])
            for k2, c2 in ctx.algebra.nf.get(uw, {}).items():
                w2 = ctx.algebra.basis[k2]
                mat = F.add(mat, F.smul(c2, M.path_matrix(w2)))
            mat = F.smul(scal * c0 % F.p, mat)
            s2 = ctx.action.vertex(u, sv)
            t2 = ctx.action.vertex(u, tv)
            r0 = G.eindex[hg] * tot + offs[t2]
            c0_ = gj * tot + offs[s2]
            if mat.size:
                out[r0: r0 + mat.shape[0], c0_: c0_ + mat.shape[1]] = (
                    out[r0: r0 + mat.shape[0], c0_: c0_ + mat.shape[1]] + mat) % F.p
    return out


def oracle_coordinates(pres, M):
    """Per Q_G vertex: the embedding matrix of the documented coordinates
    into KG (x) M (columns = coordinate basis vectors)."""
    ctx = pres.context
    F, G = pres.F, ctx.group
    offs = np.cumsum([0] + list(M.dims))
    tot = M.total_dim
    dim = G.n * tot
    coords = {}
    for qv in ctx.vertices:
        cols = []
        if ctx.is_full_orbit(qv.rep):
            for g in G.elements:
                lv = ctx.action.vertex(g, qv.rep)
                ginv = G.inv(g)
                for m in range(M.dims[lv]):
                    vec = F.zeros(1, dim)[0]
                    vec[G.eindex[ginv] * tot + offs[lv] + m] = 1
                    cols.append(vec)
        else:
            coef = F.inv(len(G.elements))
            for m in range(M.dims[qv.rep]):
                vec = F.zeros(1, dim)[0]
                for h in G.elements:
                    c = coef * ctx.chars.value(qv.char, h) % F.p
                    vec[G.eindex[h] * tot + offs[qv.rep] + m] = c
                cols.append(vec)
        coords[qv] = (np.stack(cols, axis=1) if cols
                      else F.zeros(dim, 0))
    return coords


def oracle_pushdown_matrices(pres, M):
    """Arrow matrices of the truncated module in the documented coordinates,
    computed through the explicit tensor action."""
    ctx = pres.context
    F = pres.F
    coords = oracle_coordinates(pres, M)
    mats = []
    for ar in pres.arrows:
        L = left_action_matrix(pres, M, pres.elements[ar.name])
        src, tgt = coords[ar.source], coords[ar.target]
        img = F.mul(L, src)
        sol = solve_linear(F, tgt, img) if tgt.shape[1] else F.zeros(0, src.shape[1])
        if sol is None:
            raise AssertionError("oracle image escapes the target coordinates")
        mats.append(sol)
    return mats


def loop_tensor_relations(gl, N):
    """Rows (z b) (x) n - z (x) (b n) of Z (x) N_total over every B-basis
    element b and every pair (z_r, n_j), entry by entry; index (r, j) is
    r * ntot + j."""
    F = gl.F
    B = gl.pres.algebra
    ntot = N.total_dim
    noff = np.cumsum([0] + list(N.dims))
    relrows = []
    for bi in range(B.dim):
        w = B.basis[bi]
        NB = F.zeros(ntot, ntot)
        s, t = path_source(B.quiver, w), path_target(B.quiver, w)
        NB[noff[t]: noff[t] + N.dims[t], noff[s]: noff[s] + N.dims[s]] = \
            N.path_matrix(w)
        R = gl.right_mults[bi]
        for r in range(gl.zdim):
            zb = R[:, r]
            for j in range(ntot):
                vec = F.zeros(1, gl.zdim * ntot)[0]
                for k in np.nonzero(zb)[0]:
                    vec[int(k) * ntot + j] = zb[k]
                col = NB[:, j]
                for l in np.nonzero(col)[0]:
                    vec[r * ntot + int(l)] = (vec[r * ntot + int(l)]
                                              - col[l]) % F.p
                if np.any(vec):
                    relrows.append(vec)
    return (np.stack(relrows, axis=0) if relrows
            else F.zeros(0, gl.zdim * ntot))
