"""Dense product oracles for the sparse kernel.

These rebuild the dense dim^3 structure tensor from the normal forms and
multiply through it, multiply skew elements one pair of nonzero coordinates
at a time, straight from the definition (l (x) g)(m (x) h) = l g(m) (x) gh,
and run the multiplicativity check of an action as the exhaustive loop over
(g, k1, k2).  None of them touches the COO arrays.
"""

import numpy as np

from skewcover.quiver import PathWord, path_source, path_target


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
