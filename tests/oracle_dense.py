"""Dense oracles for the sparse product kernel and the elimination kernel.

The product oracles rebuild the dense dim^3 structure tensor from the normal forms and
multiply through it, multiply skew elements one pair of nonzero coordinates
at a time, straight from the definition (l (x) g)(m (x) h) = l g(m) (x) gh,
and run the multiplicativity check of an action as the exhaustive loop over
(g, k1, k2).  None of them touches the COO arrays.

The elimination oracles are the dense Gauss-Jordan kernel the package used
before its list and row-sparse paths: a whole-matrix `outer` update per
pivot, with `solve_linear`, `nullspace_basis`, `inverse` and `in_row_space`
built on it, and the basis completion that quotient maps were read from.
They are kept verbatim so the new kernel can be checked against them.

The per-basis-vector loops are how `SkewContext.basic_dim` and `GLambda`
built their matrices before the skew algebra had a product table: one or
two skew products per basis vector of the skew algebra or of Z.  They are
kept verbatim too, apart from taking the context or presentation as an
argument; their `rank` and `solve_linear` are the dense ones below.
"""

import numpy as np

from skewcover.field import row_space
from skewcover.quiver import PathWord, make_path, path_source, path_target


def dense_table(alg):
    """table[i, j] = normal form of b_i after b_j, from alg.nf."""
    F, q, n = alg.F, alg.quiver, alg.dim
    table = np.zeros((n, n, n), dtype=np.int64)
    for i, wi in enumerate(alg.basis):
        for j, wj in enumerate(alg.basis):
            if path_source(q, wi) != path_target(q, wj):
                continue
            w = PathWord(path_source(q, wj), wi.arrows + wj.arrows)
            for k, c in alg.nf.get(w, {}).items():
                table[i, j, k] = c % F.p
    return table


def dense_multiply(F, table, x, y):
    out = np.tensordot(x % F.p, table, axes=(0, 0)) % F.p
    return (y % F.p) @ out % F.p


def dense_skew_multiply(S, table, x, y):
    F, G, A = S.F, S.group, S.algebra
    out = np.zeros(S.dim, dtype=np.int64)
    for ix in np.nonzero(x % F.p)[0]:
        k1, gi1 = divmod(int(ix), G.n)
        g1 = G.elements[gi1]
        for iy in np.nonzero(y % F.p)[0]:
            k2, gi2 = divmod(int(iy), G.n)
            b2 = np.zeros(A.dim, dtype=np.int64)
            b2[k2] = 1
            gb2 = F.mul(S.action.matrix(g1), b2.reshape(-1, 1))[:, 0]
            prod = gb2 @ table[k1] % F.p  # b_k1 * g(b_k2)
            c = int(x[ix]) * int(y[iy]) % F.p
            gh = G.eindex[G.mul(g1, G.elements[gi2])]
            for k in np.nonzero(prod)[0]:
                j = int(k) * G.n + gh
                out[j] = (out[j] + c * int(prod[k])) % F.p
    return out


def first_non_multiplicative(algebra, group, action):
    """First (g, k1, k2), looping over g, then k1, then k2, with
    g(b_k1 b_k2) != g(b_k1) g(b_k2); None if there is none."""
    F, n = algebra.F, algebra.dim
    table = dense_table(algebra)
    for g in group.elements:
        Mg = action.matrix(g)
        for k1 in range(n):
            for k2 in range(n):
                lhs = F.mul(Mg, table[k1, k2].reshape(-1, 1))[:, 0]
                rhs = dense_multiply(F, table, Mg[:, k1], Mg[:, k2])
                if not np.array_equal(lhs, rhs):
                    return g, k1, k2
    return None


# ---------------------------------------------------------------------------
# Per-basis-vector product loops
# ---------------------------------------------------------------------------

def loop_basic_dim(ctx) -> int:
    """dim e(Lambda G)e: rank of x -> e x e on the skew algebra."""
    S, F = ctx.skew, ctx.F
    cols = []
    for i in range(S.dim):
        v = F.zeros(1, S.dim)[0]
        v[i] = 1
        cols.append(S.multiply(ctx.e_bar, S.multiply(v, ctx.e_bar)))
    return rank(F, np.stack(cols, axis=1))


def loop_glambda(pres) -> dict:
    """Z, right_mults, left_vertex and left_arrow of `GLambda(pres)`."""
    ctx = pres.context
    F, S = pres.F, ctx.skew
    # basis of Z = (Lambda G) e-bar
    cols = []
    for i in range(S.dim):
        v = F.zeros(1, S.dim)[0]
        v[i] = 1
        cols.append(S.multiply(v, ctx.e_bar))
    Z = row_space(F, np.stack(cols, axis=0))  # rows span Z

    def _mult_matrix(elem, left=True):
        imgs = np.stack([S.multiply(elem, z) if left else S.multiply(z, elem)
                         for z in Z], axis=1)
        coords = solve_linear(F, Z.T, imgs)
        if coords is None:
            raise AssertionError("Z not left-stable under Lambda" if left else
                                 "Z not right-stable under e(LG)e")
        return coords

    def _eval_path(w):
        if w.is_trivial():
            return ctx.idempotents[ctx.vertices[w.vertex]]
        out = None
        for a in reversed(w.arrows):
            e = pres.elements[pres.arrows[a].name]
            out = e if out is None else S.multiply(e, out)
        return out

    A = ctx.algebra
    return {
        "Z": Z,
        "right_mults": [_mult_matrix(_eval_path(w), left=False)
                        for w in pres.algebra.basis],
        "left_vertex": [_mult_matrix(S.include(A.idempotent(v)))
                        for v in range(A.quiver.n_vertices)],
        "left_arrow": [_mult_matrix(S.include(A.unit_vector(
            A.basis[A.bindex[make_path(A.quiver, (a,))]])))
            for a in range(A.quiver.n_arrows)],
    }


# ---------------------------------------------------------------------------
# Dense elimination
# ---------------------------------------------------------------------------

def rref(F, A: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot column list)."""
    R = A.copy() % F.p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * F.inv(int(R[r, c]))) % F.p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % F.p
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(rref(F, A)[1])


def solve_linear(F, A: np.ndarray, B: np.ndarray):
    """Solve A X = B exactly.

    Returns the lexicographically first solution under reduced row echelon
    pivots (free variables set to 0), or None if the system is inconsistent.
    """
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row mismatch: {A.shape} vs {B.shape}")
    n = A.shape[1]
    k = B.shape[1] if B.ndim == 2 else 1
    Bm = B.reshape(A.shape[0], k)
    aug = np.concatenate([A % F.p, Bm % F.p], axis=1)
    R, piv = rref(F, aug)
    # any pivot in the B-block means inconsistency
    if any(c >= n for c in piv):
        return None
    X = F.zeros(n, k)
    for r, c in enumerate(piv):
        X[c] = R[r, n:]
    return X if B.ndim == 2 else X[:, 0]


def nullspace_basis(F, A: np.ndarray) -> np.ndarray:
    """Echelon-normalized basis of {x : A x = 0}, rows of the result.

    Basis size is cols - rank(A).  Free variable order (ascending column
    index) fixes the basis deterministically.
    """
    rows, cols = A.shape
    if cols == 0:
        return F.zeros(0, 0)
    if rows == 0:
        return F.eye(cols)
    R, piv = rref(F, A)
    free = [c for c in range(cols) if c not in piv]
    basis = F.zeros(len(free), cols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, c in enumerate(piv):
            basis[i, c] = (-R[r, fc]) % F.p
    return basis


def inverse(F, A: np.ndarray):
    """Inverse of a square matrix, or None if singular."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("not square")
    X = solve_linear(F, A, F.eye(n))
    if X is None or rank(F, A) < n:
        return None
    return X


def in_row_space(F, basis: np.ndarray, v: np.ndarray) -> bool:
    """Membership of vector v in the row space of `basis`."""
    if basis.shape[0] == 0:
        return not np.any(v % F.p)
    return solve_linear(F, basis.T % F.p, (v % F.p).reshape(-1, 1)) is not None


def quotient_by_completion(F, img: np.ndarray, n: int) -> np.ndarray:
    """The quotient map F^n -> F^n / span(img) for echelon rows img, as the
    lower rows of (B^T)^{-1}, B being img followed by the unit vectors of
    the non-pivot columns."""
    _, piv = rref(F, img) if img.shape[0] else (img, [])
    free = [c for c in range(n) if c not in piv]
    B = F.zeros(n, n)
    B[: img.shape[0]] = img
    for i, c in enumerate(free):
        B[img.shape[0] + i, c] = 1
    Bt_inv = solve_linear(F, B.T, F.eye(n))
    return Bt_inv[img.shape[0]:, :]
