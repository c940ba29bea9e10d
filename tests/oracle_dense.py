"""Dense oracles for the sparse product kernel and the elimination kernel.

The product oracles rebuild the dense dim^3 structure tensor from the normal forms and
multiply through it, multiply skew elements one pair of nonzero coordinates
at a time, straight from the definition (l (x) g)(m (x) h) = l g(m) (x) gh,
and run the multiplicativity check of an action as the exhaustive loop over
(g, k1, k2).  None of them touches the COO arrays: the action's matrices
come from `action_matrix`, the loop `QuiverAction.matrix` ran before the
action kept its entries sparse, kept verbatim.

`loop_check_idempotents` is the pairwise loop `SkewContext` ran over its
idempotents before it took all products from one contraction, kept
verbatim; its first failure and message are the reference.

The elimination oracles are the dense Gauss-Jordan kernel the package used
before its list and row-sparse paths: a whole-matrix `outer` update per
pivot, with `solve_linear`, `nullspace_basis`, `inverse` and `in_row_space`
built on it, and the basis completion that quotient maps were read from.
They are kept verbatim so the new kernel can be checked against them.

The per-basis-vector loops are how `SkewContext.basic_dim` and the tensor
`GLambda` (now `oracle_glambda.GLambda`) built their matrices before the
skew algebra had a product table: one or two skew products per basis vector
of the skew algebra or of Z.  They are
kept verbatim too, apart from taking the context or presentation as an
argument; their `rank` and `solve_linear` are the dense ones below.

`solve_hom` is `rep._solve_hom` as it was before the commuting-square
system was built as sparse rows: dense blocks written one entry at a time,
a dense nullspace, and each basis element checked by `is_valid`.  It is
kept verbatim apart from its name; its `nullspace_basis` is the dense one
below.

`trace_form_gram` is the pairwise loop `algebra_radical` ran for its Gram
matrix, one product and trace per pair, before it took one stacked
product; kept verbatim apart from building the unit vectors inline and
returning the Gram matrix in place of its nullspace.

`two_pass_presentation` is how `SkewPresentation` found the relations of
Q_G and built its bound algebra before the algebra's degree walk asked
for them: one walk over Q_G for the kernel of K Q_G -> e(Lambda G)e, then
a second one inside `BoundAlgebra` rebuilding the ideal.  Its two methods
are kept verbatim, run on a namespace in place of the presentation; their
`nullspace_basis` and `in_row_space` are the dense ones below.

`pair_loop_arrows` is how `SkewPresentation` found the arrows of Q_G
before it took one pass over Lambda's arrows: every ordered pair of orbit
representatives, with `d_set` re-scanning all arrows for each.  Both are
kept verbatim apart from taking the context or presentation namespace as
an argument.

`dense_relation_defects` is `Representation.relation_defects` as it was
before the terms shared their suffix products: each term's path matrix
rebuilt from the arrow maps and summed into a dense accumulator, kept
verbatim with the module as its argument.

`loop_combine` is `rep.combine` as it was before a Hom space kept its
basis as one array: one scaled addition per basis element and vertex.
`loop_sum_module` is `ar._sum_module` as it was before `block_diag`: each
arrow's block-diagonal map placed summand by summand.  Both are kept
verbatim apart from their names.

The dense multiplication maps of a `StructureConstants` algebra and its
associativity and identity checks were its methods until only the tests
used them (the package multiplies through `mult_entries`); they are kept
verbatim as functions of the algebra.
"""

from types import SimpleNamespace

import numpy as np

from skewcover.field import coalesce, match_pairs, row_space
from skewcover.rep import (Representation, RepMorphism, _frozen,
                           morphism_from_vector)
from skewcover.quiver import (BoundAlgebra, NotAdmissibleError, PathWord,
                              RelationElement, ideal_closure, make_path,
                              path_source, path_target)
from skewcover.action import arrow_character
from skewcover.skew import QGVertex, _apply_terms

from oracle_paper import arrow_orbit


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
            gb2 = F.mul(action_matrix(S.action, g1), b2.reshape(-1, 1))[:, 0]
            prod = gb2 @ table[k1] % F.p  # b_k1 * g(b_k2)
            c = int(x[ix]) * int(y[iy]) % F.p
            gh = G.eindex[G.mul(g1, G.elements[gi2])]
            for k in np.nonzero(prod)[0]:
                j = int(k) * G.n + gh
                out[j] = (out[j] + c * int(prod[k])) % F.p
    return out


def action_matrix(action, g):
    """Matrix of the algebra automorphism g on the normal-form basis."""
    A = action.algebra
    M = action.F.zeros(A.dim, A.dim)
    for k, w in enumerate(A.basis):
        c, gw = action.path(g, w)
        nf = A.nf.get(gw)
        if nf is None:
            raise ValueError(f"action image leaves the path domain at basis {k}")
        for j, cj in nf.items():
            M[j, k] = c * cj % action.F.p
    return M


def first_non_multiplicative(algebra, group, action, matrices=None):
    """First (g, k1, k2), looping over g, then k1, then k2, with
    g(b_k1 b_k2) != g(b_k1) g(b_k2); None if there is none.  `matrices`
    replaces `action_matrix` for the group elements it names."""
    F, n = algebra.F, algebra.dim
    table = dense_table(algebra)
    for g in group.elements:
        Mg = matrices[g] if matrices and g in matrices else action_matrix(action, g)
        for k1 in range(n):
            for k2 in range(n):
                lhs = F.mul(Mg, table[k1, k2].reshape(-1, 1))[:, 0]
                rhs = dense_multiply(F, table, Mg[:, k1], Mg[:, k2])
                if not np.array_equal(lhs, rhs):
                    return g, k1, k2
    return None


def loop_check_idempotents(ctx):
    """Raise AssertionError at the first failing idempotent relation."""
    S = ctx.skew
    items = list(ctx.idempotents.items())
    for v1, e1 in items:
        if not np.array_equal(S.multiply(e1, e1), e1):
            raise AssertionError(f"idempotent at {v1} fails e^2 = e")
    for i, (v1, e1) in enumerate(items):
        for v2, e2 in items[i + 1:]:
            if np.any(S.multiply(e1, e2)) or np.any(S.multiply(e2, e1)):
                raise AssertionError(f"idempotents at {v1}, {v2} not orthogonal")
    if not np.array_equal(S.multiply(ctx.e_bar, ctx.e_bar), ctx.e_bar):
        raise AssertionError("e-bar is not idempotent")
    for rep in ctx.orbit_data.fixed_reps:
        tot = ctx.F.zeros(1, S.dim)[0]
        for chi in ctx.stab_chars[rep]:
            tot = ctx.F.add(tot, ctx.idempotents[QGVertex(rep, chi)])
        expected = S.include(ctx.algebra.idempotent(rep))
        if not np.array_equal(tot, expected):
            raise AssertionError(
                f"character idempotents at rep {rep} do not sum to i0 (x) 1")


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
    """Z, right_mults, left_vertex and left_arrow of
    `oracle_glambda.GLambda(pres)`."""
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
# Two-pass skew presentation
# ---------------------------------------------------------------------------

def two_pass_presentation(pres):
    """Namespace with `relation_gens`, `algebra` and `basic_dim` computed
    from the Q_G, arrows and realizing elements of `pres`."""
    ns = SimpleNamespace(context=pres.context, F=pres.F, qg=pres.qg,
                         length_bound=pres.length_bound, arrows=pres.arrows,
                         elements=pres.elements)
    _compute_relations(ns)
    _build_algebra(ns)
    return ns


def _compute_relations(self):
    """Kernel of K Q_G -> e(Lambda G)e degree by degree.

    K_d = degree-d kernel; new relation generators are an echelon
    complement of span(arrows * K_{d-1} + K_{d-1} * arrows) inside K_d.
    Stops at the first degree where every path evaluates to zero.
    """
    ctx = self.context
    F, qg, S = self.F, self.qg, ctx.skew
    N = self.length_bound

    target_dim = ctx.basic_dim()
    image_dim = len(ctx.vertices)

    paths_prev = [PathWord(v) for v in range(qg.n_vertices)]
    eval_prev = {PathWord(v): ctx.idempotents[ctx.vertices[v]]
                 for v in range(qg.n_vertices)}
    kernel_prev: list[dict[PathWord, int]] = []
    self.relation_gens: list[RelationElement] = []

    for d in range(1, N + 1):
        paths_d: list[PathWord] = []
        pindex: dict[PathWord, int] = {}
        eval_d: dict[PathWord, np.ndarray] = {}
        for w in paths_prev:
            for ai in qg.arrows_from(path_target(qg, w)):
                nw = PathWord(path_source(qg, w), (ai,) + w.arrows)
                pindex[nw] = len(paths_d)
                paths_d.append(nw)
                eval_d[nw] = S.multiply(self.elements[self.arrows[ai].name],
                                        eval_prev[w])
        if not paths_d:
            self.qg_nilpotency = d
            break

        # ideal component generated by lower-degree kernels
        closure = ideal_closure(F, qg, kernel_prev)
        C = F.zeros(len(closure), len(paths_d))
        for i, x in enumerate(closure):
            for w, c in x.items():
                C[i, pindex[w]] = c
        Crow = row_space(F, C)

        E = np.stack([eval_d[w] for w in paths_d], axis=0) % F.p
        ker = nullspace_basis(F, E.T)

        for r in range(ker.shape[0]):
            vec = ker[r]
            if in_row_space(F, Crow, vec):
                continue
            terms = tuple((int(vec[i]), paths_d[int(i)])
                          for i in np.nonzero(vec % F.p)[0])
            self.relation_gens.append(RelationElement(terms))
            Crow = row_space(F, np.concatenate([Crow, vec.reshape(1, -1)]))

        image_dim += len(paths_d) - ker.shape[0]
        kernel_prev = [
            {paths_d[i]: int(ker[r, i]) for i in range(len(paths_d)) if ker[r, i]}
            for r in range(ker.shape[0])
        ]
        paths_prev = paths_d
        eval_prev = eval_d
        if not any(np.any(v % F.p) for v in eval_d.values()):
            self.qg_nilpotency = d
            break
    else:
        raise NotAdmissibleError(
            f"Q_G paths of length {N} still evaluate nonzero; raise the bound")

    if image_dim != target_dim:
        raise AssertionError(
            f"presentation image dim {image_dim} != dim e(LG)e {target_dim}")
    self.basic_dim = target_dim


def _build_algebra(self):
    self.algebra = BoundAlgebra(self.F, self.qg, self.relation_gens,
                                self.length_bound)
    if self.algebra.dim != self.basic_dim:
        raise AssertionError(
            f"bound algebra of Q_G has dim {self.algebra.dim}, "
            f"expected {self.basic_dim}")


# ---------------------------------------------------------------------------
# Q_G arrows from every pair of orbit representatives
# ---------------------------------------------------------------------------

def pair_loop_arrows(pres):
    """Namespace with `arrows`, `elements` and `orbit_arrow_data` found by
    the pair loop on the context of `pres`, with its realizing helpers."""
    ns = SimpleNamespace(context=pres.context, arrows=[], elements={},
                         orbit_arrow_data={}, _case_of=pres._case_of,
                         _realize=pres._realize, _case1_twist=pres._case1_twist)
    _build_arrows(ns)
    return ns


def d_set(self, i0: int, j0: int) -> list[int]:
    """D(i0, j0): arrows from R_{i0 j0}-vertices into j0, in declaration order."""
    q = self.algebra.quiver
    rset = set(self.r_set(i0, j0))
    return [a for a in range(q.n_arrows)
            if q.arrows[a].target == j0 and q.arrows[a].source in rset]


def _build_arrows(self):
    ctx = self.context
    chars, F = ctx.chars, ctx.F
    od = ctx.orbit_data
    counter = 0
    for i0 in od.representatives:
        for j0 in od.representatives:
            stab_i = ctx.action.vertex_stabilizer(i0)
            stab_j = ctx.action.vertex_stabilizer(j0)
            joint = sorted(set(stab_i) & set(stab_j))
            case = self._case_of(i0, j0)
            for a in d_set(ctx, i0, j0):
                chi_a = arrow_character(ctx.action, chars, a, subgroup=joint)
                for b in arrow_orbit(ctx.action, a):
                    self.orbit_arrow_data[b] = (case, a, self._case1_twist(i0, a))
                for rho in ctx.stab_chars[i0]:
                    for sigma in ctx.stab_chars[j0]:
                        lhs = chars.restriction_values(rho, joint)
                        rhs = tuple(
                            chars.value(sigma, h) * chars.value(chi_a, h) % F.p
                            for h in joint)
                        if lhs != rhs:
                            continue
                        arrow, elem = self._realize(i0, j0, case, a, rho, sigma, counter)
                        self.arrows.append(arrow)
                        self.elements[arrow.name] = elem
                        counter += 1
    # e_t x e_s = x for every realizing element x of an arrow s -> t
    T, n = ctx.skew.structure, ctx.skew.dim
    X = np.array([self.elements[ar.name] for ar in self.arrows]).reshape(-1, n)
    E = np.stack([ctx.idempotents[v] for v in ctx.vertices])
    ends = np.array([[ctx.vqindex[ar.source], ctx.vqindex[ar.target]]
                     for ar in self.arrows], dtype=np.int64).reshape(-1, 2)
    self._left_terms = T.mult_entries(X, left=True)
    trunc = _apply_terms(T.mult_entries(E, left=True), ends[:, 1], _apply_terms(
        self._left_terms, np.arange(len(X)), E[ends[:, 0]], F.p), F.p)
    bad = np.flatnonzero(~X.any(axis=1) | (trunc != X).any(axis=1))
    if bad.size:
        ar = self.arrows[bad[0]]
        raise AssertionError(f"realizing element not supported at "
                             f"({ar.source}, {ar.target}), case {ar.case}")


# ---------------------------------------------------------------------------
# Relation check by dense path matrices
# ---------------------------------------------------------------------------

def dense_relation_defects(self):
    bad = []
    for i, r in enumerate(self.algebra.relations):
        _, w0 = r.terms[0]
        s, t = path_source(self.algebra.quiver, w0), path_target(self.algebra.quiver, w0)
        acc = self.F.zeros(self.dims[t], self.dims[s])
        for c, w in r.terms:
            acc = self.F.add(acc, self.F.smul(c, self.path_matrix(w)))
        if np.any(acc):
            bad.append(i)
    return bad


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


def solve_hom(M, N) -> list[list[np.ndarray]]:
    """The hom basis as per-vertex block lists, each checked to commute."""
    F, q = M.F, M.algebra.quiver
    nunk = sum(dm * dn for dm, dn in zip(M.dims, N.dims))
    if nunk == 0:
        return []
    offsets = []
    off = 0
    for dm, dn in zip(M.dims, N.dims):
        offsets.append(off)
        off += dm * dn
    rows = []
    for a, arr in enumerate(q.arrows):
        s, t = arr.source, arr.target
        ds_m, dt_m = M.dims[s], M.dims[t]
        ds_n, dt_n = N.dims[s], N.dims[t]
        # constraint: f_t M(a) - N(a) f_s = 0, entries (i, j) i<dt_n, j<ds_m
        nrows = dt_n * ds_m
        if nrows == 0:
            continue
        block = F.zeros(nrows, nunk)
        Ma, Na = M.maps[a], N.maps[a]
        for i in range(dt_n):
            for j in range(ds_m):
                r = i * ds_m + j
                # f_t entries: f_t[i, k] * M(a)[k, j]
                for k in range(dt_m):
                    block[r, offsets[t] + i * dt_m + k] = (
                        block[r, offsets[t] + i * dt_m + k] + Ma[k, j]) % F.p
                # -N(a)[i, k] * f_s[k, j]
                for k in range(ds_n):
                    block[r, offsets[s] + k * ds_m + j] = (
                        block[r, offsets[s] + k * ds_m + j] - Na[i, k]) % F.p
        rows.append(block)
    A = np.concatenate(rows, axis=0) if rows else F.zeros(0, nunk)
    basis_vecs = nullspace_basis(F, A)
    basis = []
    for i in range(basis_vecs.shape[0]):
        f = morphism_from_vector(M, N, basis_vecs[i])
        if not f.is_valid():
            raise AssertionError("hom basis element fails commuting squares")
        basis.append([_frozen(b) for b in f.blocks])
    return basis


def loop_combine(H, coeffs) -> RepMorphism:
    F = H.source.F
    blocks = [F.zeros(dn, dm) for dm, dn in zip(H.source.dims, H.target.dims)]
    for c, f in zip(coeffs, H.basis):
        blocks = [F.add(b, F.smul(int(c), fb)) for b, fb in zip(blocks, f.blocks)]
    return RepMorphism(H.source, H.target, blocks)


def loop_sum_module(alg, reps: list[Representation]) -> Representation:
    """The direct sum of `reps`, without the witnesses of `direct_sum`."""
    q, F = alg.quiver, alg.F
    dims = [sum(r.dims[v] for r in reps) for v in range(q.n_vertices)]
    maps = []
    for a, arr in enumerate(q.arrows):
        m = F.zeros(dims[arr.target], dims[arr.source])
        ro = co = 0
        for r in reps:
            dt, ds = r.dims[arr.target], r.dims[arr.source]
            m[ro: ro + dt, co: co + ds] = r.maps[a]
            ro += dt
            co += ds
        maps.append(m)
    return Representation(alg, dims, maps)


def trace_form_gram(A) -> np.ndarray:
    F = A.F
    n = A.dim
    lefts = [left_mult_matrix(A, np.eye(n, dtype=np.int64)[i]) for i in range(n)]
    gram = F.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            t = int(np.trace(F.mul(lefts[i], lefts[j])) % F.p)
            gram[i, j] = t
            gram[j, i] = t
    return gram


# ---------------------------------------------------------------------------
# Dense multiplication maps and the algebra axioms
# ---------------------------------------------------------------------------

def left_mult_matrix(A, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> x*y acting on coordinate columns."""
    return _dense(A, *A.mult_entries(x, left=True))


def right_mult_matrix(A, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> y*x acting on coordinate columns."""
    return _dense(A, *A.mult_entries(x, left=False))


def _dense(A, rows, cols, vals) -> np.ndarray:
    p, n = A.F.p, A.dim
    M = np.zeros(n * n, dtype=np.int64)
    np.add.at(M, rows * n + cols, vals)
    return (M % p).reshape(n, n)


def check_associativity(A) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k) for all i, j, k, compared as
    sparse tensors over (i, j, k, m)."""
    F, n = A.F, A.dim
    I, J, K, C = A.I, A.J, A.K, A.C
    # (b_i b_j) b_k: entry e gives b_i b_j at l, entry f gives b_l b_k
    e, f = match_pairs(K, I)
    left = coalesce(F, ((I[e] * n + J[e]) * n + J[f]) * n + K[f],
                    C[e] * C[f])
    # b_i (b_j b_k): entry e gives b_j b_k at l, entry f gives b_i b_l
    e, f = match_pairs(K, J)
    right = coalesce(F, ((I[f] * n + I[e]) * n + J[e]) * n + K[f],
                     C[e] * C[f])
    return all(np.array_equal(a, b) for a, b in zip(left, right))


def check_identity(A) -> bool:
    eye = A.F.eye(A.dim)
    return (np.array_equal(left_mult_matrix(A, A.one), eye)
            and np.array_equal(right_mult_matrix(A, A.one), eye))
