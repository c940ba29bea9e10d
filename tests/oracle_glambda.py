"""The reverse functor G_lambda as the package computed it before it used
the pull-up along the semi-covering: (Lambda G) e-bar (x)_B N restricted
to Lambda, with a basis of Z = (Lambda G) e-bar, one dense multiplication
map on Z per basis path of B and per Lambda vertex and arrow, and the
quotient of Z (x) N by Kronecker-block relation rows.  Kept verbatim as an
oracle for `pushdown.GLambda`: its G_lambda N and G_lambda f must agree
with the pull-up's up to isomorphism, and its `Z`, `right_mults`,
`left_vertex`, `left_arrow` and `_tensor` are checked against the loops of
`oracle_dense.loop_glambda` and `oracle_tensor.loop_tensor_relations`.
"""

import numpy as np

from skewcover.field import quotient_map, row_space, solve_linear
from skewcover.quiver import PathWord, make_path, path_source, path_target
from skewcover.rep import RepMorphism, Representation
from skewcover.skew import SkewPresentation

from oracle_dense import left_mult_matrix, right_mult_matrix


class GLambda:
    """(Lambda G) e-bar (x)_B (-) followed by restriction along
    l -> l (x) 1: the reverse semi-covering, computed with dense linear
    algebra over Z = (Lambda G) e-bar.  Z and the multiplication matrices
    on its coordinates are read off the skew algebra's product table."""

    def __init__(self, pres: SkewPresentation):
        self.pres = pres
        ctx = pres.context
        F, S = pres.F, ctx.skew
        self.F, self.S = F, S
        T = S.structure
        # rows span Z = (Lambda G) e-bar, the images b_i e-bar
        self.Z = row_space(F, right_mult_matrix(T, ctx.e_bar).T)
        self.zdim = self.Z.shape[0]
        # right multiplication by the presentation's basis paths
        self.right_mults = [
            self._on_Z(right_mult_matrix(T, self._eval_path(w)), left=False)
            for w in pres.algebra.basis]
        # left multiplication by Lambda-basis generators (vertices + arrows)
        A = ctx.algebra
        self.left_vertex = [
            self._on_Z(left_mult_matrix(T, S.include(A.idempotent(v))), left=True)
            for v in range(A.quiver.n_vertices)]
        self.left_arrow = [self._on_Z(left_mult_matrix(T, S.include(A.unit_vector(
            A.basis[A.bindex[make_path(A.quiver, (a,))]]))), left=True)
            for a in range(A.quiver.n_arrows)]

    def _eval_path(self, w: PathWord) -> np.ndarray:
        ctx = self.pres.context
        if w.is_trivial():
            return ctx.idempotents[ctx.vertices[w.vertex]]
        out = None
        for a in reversed(w.arrows):
            e = self.pres.elements[self.pres.arrows[a].name]
            out = e if out is None else self.S.multiply(e, out)
        return out

    def _on_Z(self, mult: np.ndarray, left: bool) -> np.ndarray:
        """A multiplication map of the skew algebra restricted to Z, in
        Z-coordinates: column r holds the coordinates of the image of Z[r],
        all solved at once."""
        coords = solve_linear(self.F, self.Z.T, self.F.mul(mult, self.Z.T))
        if coords is None:
            raise AssertionError("Z not left-stable under Lambda" if left else
                                 "Z not right-stable under e(LG)e")
        return coords

    def _tensor(self, N: Representation):
        """(quotient projection from Z (x) N_total, per-vertex bases)."""
        F = self.F
        B = self.pres.algebra
        ntot = N.total_dim
        noff = np.cumsum([0] + list(N.dims))
        # total-space action of each B-basis element on N
        def act_total(bi: int) -> np.ndarray:
            w = B.basis[bi]
            m = F.zeros(ntot, ntot)
            s, t = path_source(B.quiver, w), path_target(B.quiver, w)
            blk = N.path_matrix(w)
            m[noff[t]: noff[t] + N.dims[t], noff[s]: noff[s] + N.dims[s]] = blk
            return m

        # relations (z b) (x) n - z (x) (b n): the row of the pair (z_r, n_j)
        # sits at r * ntot + j, so each b contributes R_b^T (x) I - I (x) N_b^T
        rel = np.concatenate(
            [np.kron(self.right_mults[bi].T, F.eye(ntot))
             - np.kron(F.eye(self.zdim), act_total(bi).T)
             for bi in range(B.dim)], axis=0) % F.p
        proj = quotient_map(F, row_space(F, rel), self.zdim * ntot)
        return proj, ntot

    def materialize(self, N: Representation):
        """(representation, quotient data) for G_lambda N."""
        F = self.F
        A = self.pres.context.algebra
        q = A.quiver
        proj, ntot = self._tensor(N)
        xdim = proj.shape[0]
        sec = solve_linear(F, proj, F.eye(xdim))

        def induced(left: np.ndarray) -> np.ndarray:
            big = np.kron(left, F.eye(ntot)) % F.p
            return F.mul(proj, F.mul(big, sec))

        vert_ops = [induced(self.left_vertex[v]) for v in range(q.n_vertices)]
        vert_bases = [row_space(F, vert_ops[v].T) for v in range(q.n_vertices)]
        dims = [b.shape[0] for b in vert_bases]
        maps = []
        for a, arr in enumerate(q.arrows):
            s, t = arr.source, arr.target
            if dims[s] == 0 or dims[t] == 0:
                maps.append(F.zeros(dims[t], dims[s]))
                continue
            op = induced(self.left_arrow[a])
            img = F.mul(op, vert_bases[s].T)
            coords = solve_linear(F, vert_bases[t].T, img)
            if coords is None:
                raise AssertionError("arrow action leaves vertex decomposition")
            maps.append(coords)
        rep = Representation(A, dims, maps)
        return rep, (proj, sec, vert_bases, ntot)

    def apply(self, N: Representation) -> Representation:
        """G_lambda N as a representation of the original quiver."""
        return self.materialize(N)[0]

    def apply_morphism(self, f: RepMorphism, matM=None, matN=None) -> RepMorphism:
        """G_lambda f via id_Z (x) f on the tensor quotients.

        `matM` / `matN` are (rep, data) pairs from `materialize`, recomputed
        when omitted."""
        F = self.F
        A = self.pres.context.algebra
        q = A.quiver
        matM = matM or self.materialize(f.source)
        matN = matN or self.materialize(f.target)
        GM, (projM, secM, basesM, ntotM) = matM
        GN, (projN, secN, basesN, ntotN) = matN
        ftot = F.zeros(ntotN, ntotM)
        offs = np.cumsum([0] + list(f.source.dims))
        offt = np.cumsum([0] + list(f.target.dims))
        for v in range(len(f.source.dims)):  # vertices of the skew quiver
            blk = f.blocks[v]
            if blk.size:
                ftot[offt[v]: offt[v] + blk.shape[0],
                     offs[v]: offs[v] + blk.shape[1]] = blk
        big = np.kron(F.eye(self.zdim), ftot) % F.p
        X2X = F.mul(projN, F.mul(big, secM))
        blocks = []
        for v in range(q.n_vertices):
            if GM.dims[v] == 0 or GN.dims[v] == 0:
                blocks.append(F.zeros(GN.dims[v], GM.dims[v]))
                continue
            img = F.mul(X2X, basesM[v].T)
            coords = solve_linear(F, basesN[v].T, img)
            if coords is None:
                raise AssertionError("morphism image leaves vertex decomposition")
            blocks.append(coords)
        out = RepMorphism(GM, GN, blocks)
        if not out.is_valid():
            raise AssertionError("G_lambda morphism fails commuting squares")
        return out
