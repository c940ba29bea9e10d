"""Representations of a bound quiver algebra: hom spaces, twists,
indecomposability, Krull-Schmidt decomposition, and radical powers of the
module category relative to a complete list of indecomposables.  Those
grow one source row at a time, so a rank question reads only the rows of
the projectives; `ar.category_rank` says why those rows suffice, and why
the stable rank is the rank (Auslander, Comm. Algebra 1 (1974)).

Representations are covariant: M(a): M(s(a)) -> M(t(a)), i.e. left modules
under the functional composition convention.  Morphisms are per-vertex
matrices with N(a) f_s = f_t M(a).

A morphism vector lists the vertex blocks in vertex order, each row-major.
`_cut` reads blocks off such vectors and `_layout` places them in total
(block-diagonal) matrices; a Hom space keeps its basis as these vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate

import numpy as np

from .field import (factor_poly, in_row_space, minimal_polynomial,
                    nullspace_basis, poly_divmod, poly_gcd_ext, poly_mul,
                    poly_eval_matrix, power, algebra_radical, quotient_map, rank,
                    rref, row_space, solve_linear, sparse_nullspace_basis,
                    StructureConstants)
from .quiver import BoundAlgebra, PathWord, path_source, path_target
from .action import QuiverAction


RADICAL_CUTOFF = 64  # largest n of rad^n looked at, for ranks and levels


class NonSplitEndError(Exception):
    """End(M)/rad is a proper field extension of F_p: M is indecomposable
    over F_p but not absolutely; reported rather than silently decided."""


class Representation:
    """Vertex dimensions plus one matrix per arrow (target x source), as a
    checked value: the maps are reduced mod p into new read-only arrays and
    the relations are checked, so a module's content can key a memo."""

    def __init__(self, algebra: BoundAlgebra, dims, maps):
        self.algebra = algebra
        self.F = algebra.F
        q = algebra.quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != q.n_vertices:
            raise ValueError("one dimension per vertex required")
        frozen = []
        for a, arr in enumerate(q.arrows):
            m = maps[a] if a < len(maps) and maps[a] is not None else None
            shape = (self.dims[arr.target], self.dims[arr.source])
            if m is None:
                m = self.F.zeros(*shape)
            m = np.asarray(m, dtype=np.int64) % self.F.p
            if m.shape != shape:
                raise ValueError(
                    f"map for arrow {arr.name} has shape {m.shape}, want {shape}")
            frozen.append(_frozen(m))
        self.maps = tuple(frozen)
        bad = self.relation_defects()
        if bad:
            raise ValueError(f"relations violated: {bad}")

    # -- structure ----------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @cached_property
    def content_key(self) -> tuple:
        """Dims plus arrow-matrix bytes, built once: the maps are read-only."""
        return self.dims, b"".join(m.tobytes() for m in self.maps)

    def path_matrix(self, w: PathWord) -> np.ndarray:
        q = self.algebra.quiver
        if w.is_trivial():
            return self.F.eye(self.dims[w.vertex])
        out = None
        for a in reversed(w.arrows):  # rightmost applied first
            out = self.maps[a] if out is None else self.F.mul(self.maps[a], out)
        return out

    def relation_defects(self):
        """Indices of the relations the maps violate.  Each term is read off
        arrow-suffix products built once and shared by every term of every
        relation; a relation with a zero end space holds vacuously."""
        F, q, known = self.F, self.algebra.quiver, {}
        bad = []
        for i, r in enumerate(self.algebra.relations):
            _, w0 = r.terms[0]
            if not (self.dims[path_source(q, w0)] and self.dims[path_target(q, w0)]):
                continue
            live = [(c, m) for c, w in r.terms
                    if (m := self._suffix_product(w.arrows, known)) is not None]
            # one nonzero term is a nonzero scalar times a nonzero matrix
            if len(live) == 1 or (live and reduce(
                    F.add, (F.smul(c, m) for c, m in live)).any()):
                bad.append(i)
        return bad

    def _suffix_product(self, arrows: tuple[int, ...], known: dict):
        """The path matrix of `arrows`, or None when it is zero, built from
        its suffixes (rightmost arrows first) kept in `known`; a zero
        suffix ends the path."""
        prod = None
        for k in range(len(arrows) - 1, -1, -1):
            key = arrows[k:]
            if key not in known:
                m = self.maps[arrows[k]]
                m = m if prod is None else self.F.mul(m, prod)
                known[key] = m if m.any() else None
            prod = known[key]
            if prod is None:
                break
        return prod

    def radical_layers(self) -> tuple[tuple[int, ...], ...]:
        """Loewy series dim vectors (top first); a canonical iso invariant."""
        F, q = self.F, self.algebra.quiver
        # current radical power as per-vertex row-space bases
        cur = [self.F.eye(d) for d in self.dims]
        layers = []
        while any(b.shape[0] for b in cur):
            nxt = []
            for v in range(q.n_vertices):
                pieces = []
                for a in q.arrows_into(v):
                    src = self.algebra.quiver.arrows[a].source
                    if cur[src].shape[0]:
                        pieces.append(F.mul(cur[src], self.maps[a].T))
                if pieces:
                    nxt.append(row_space(F, np.concatenate(pieces, axis=0)))
                else:
                    nxt.append(F.zeros(0, self.dims[v]))
            layers.append(tuple(cur[v].shape[0] - nxt[v].shape[0]
                                for v in range(q.n_vertices)))
            if all(n.shape[0] == c.shape[0] for n, c in zip(nxt, cur)):
                raise AssertionError("radical filtration is not descending")
            cur = nxt
        return tuple(layers)

    def label(self) -> str:
        """The Loewy layers as text, computed once per module."""
        return self._label

    @cached_property
    def _layers(self) -> tuple[tuple[int, ...], ...]:
        return self.radical_layers()

    @cached_property
    def _label(self) -> str:
        return "|".join(",".join(str(d) for d in layer)
                        for layer in self._layers) or "0"

    def __repr__(self):
        return f"Rep{self.dims}"


@dataclass
class RepMorphism:
    source: Representation
    target: Representation
    blocks: list[np.ndarray]  # per vertex, target-dim x source-dim

    def is_valid(self) -> bool:
        q = self.source.algebra.quiver
        F = self.source.F
        for a, arr in enumerate(q.arrows):
            # a square with no entries always commutes
            if not (self.target.dims[arr.target] and self.source.dims[arr.source]):
                continue
            lhs = F.mul(self.blocks[arr.target], self.source.maps[a])
            rhs = F.mul(self.target.maps[a], self.blocks[arr.source])
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def is_zero(self) -> bool:
        return all(not np.any(b) for b in self.blocks)

    def to_vector(self) -> np.ndarray:
        parts = [b.reshape(-1) for b in self.blocks]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def compose(self, earlier: "RepMorphism") -> "RepMorphism":
        """self after earlier; a block with no entries on either side
        composes to a zero block, with no product."""
        F = self.source.F
        blocks = [F.mul(b2, b1) if b1.size and b2.size else F.zeros(len(b2), b1.shape[1])
                  for b1, b2 in zip(earlier.blocks, self.blocks)]
        return RepMorphism(earlier.source, self.target, blocks)

    def is_invertible(self) -> bool:
        F = self.source.F
        if self.source.dims != self.target.dims:
            return False
        return all(rank(F, b) == b.shape[0] == b.shape[1] for b in self.blocks)


def zero_morphism(M: Representation, N: Representation) -> RepMorphism:
    F = M.F
    return RepMorphism(M, N, [F.zeros(dn, dm) for dm, dn in zip(M.dims, N.dims)])


def identity_morphism(M: Representation) -> RepMorphism:
    return RepMorphism(M, M, [M.F.eye(d) for d in M.dims])


def _cut(vectors: np.ndarray, source_dims, target_dims) -> list[np.ndarray]:
    """The rows of `vectors`, morphism vectors M -> N with these dimension
    vectors, as per-vertex stacks: views of shape (rows, dim N(v), dim M(v))."""
    n, out, off = len(vectors), [], 0
    for dm, dn in zip(source_dims, target_dims):
        out.append(vectors[:, off: off + dm * dn].reshape(n, dn, dm))
        off += dm * dn
    return out


def morphism_from_vector(M: Representation, N: Representation,
                         vec: np.ndarray) -> RepMorphism:
    return RepMorphism(M, N, [s[0] for s in _cut(vec.reshape(1, -1) % M.F.p,
                                                 M.dims, N.dims)])


@dataclass
class HomSpace:
    """Hom(source, target) with its basis as the rows of `vectors` and as
    the per-vertex stacks `stacks` cut from them, read-only views of one
    solved array; `basis` wraps them as morphisms on first use."""
    source: Representation
    target: Representation
    vectors: np.ndarray
    stacks: tuple[np.ndarray, ...]

    @cached_property
    def basis(self) -> list[RepMorphism]:
        return [RepMorphism(self.source, self.target, list(b)) for b in zip(*self.stacks)]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


class ModuleTable:
    """Memo of Hom bases, endomorphism algebras with their radicals, and
    Krull-Schmidt decompositions over one algebra, keyed on module
    contents: the dimension vector plus the bytes of the arrow matrices.

    A table is owned by its algebra (`module_table`) and lives exactly as
    long as it.  Entries hold arrays and structure constants only, never a
    Representation, so they keep no module alive and no reference back to
    the algebra; each lookup rebinds them to the caller's modules.  Stored
    arrays are read-only.
    """

    def __init__(self):
        self._entries: dict[tuple, object] = {}

    @staticmethod
    def key(M: Representation) -> tuple:
        return M.content_key

    def lookup(self, kind: str | tuple, modules: tuple, compute):
        """The entry `kind` for `modules`, from `compute()` on first use."""
        key = (kind, *map(self.key, modules))
        try:
            return self._entries[key]
        except KeyError:
            value = self._entries[key] = compute()
            return value

    def __len__(self) -> int:
        return len(self._entries)


def module_table(alg: BoundAlgebra) -> ModuleTable:
    """The module table owned by `alg`, made on first use."""
    table = alg.__dict__.get("_module_table")
    if table is None:
        table = alg._module_table = ModuleTable()
    return table


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def hom_basis(M: Representation, N: Representation) -> HomSpace:
    """Solve the commuting-square system; echelon-normalized basis.

    Unknowns are the morphism vectors: the per-vertex blocks flattened
    row-major in vertex order.  Memoized in the module table of M's
    algebra.
    """
    if M.algebra is not N.algebra and M.algebra.dim != N.algebra.dim:
        raise ValueError("representations over different algebras")
    return HomSpace(M, N, *module_table(M.algebra).lookup(
        "hom", (M, N), lambda: _solve_hom(M, N)))


def _solve_hom(M: Representation, N: Representation):
    """The hom basis as (vectors, stacks): a read-only array whose rows are
    the basis morphism vectors, and its per-vertex stacks from `_cut`, all
    checked to commute; the shared entry of `_zero_hom` when there are none.

    The system has one row per entry (i, j) of each commuting square
    f_t M(a) - N(a) f_s = 0 of an arrow a: s -> t, built as sparse
    {unknown: coefficient} rows from the nonzeros of M(a) and N(a).  Its
    nullspace basis is checked on the stacks, by one stacked product per
    arrow."""
    F, q, p = M.F, M.algebra.quiver, M.F.p
    offsets = list(accumulate((dm * dn for dm, dn in zip(M.dims, N.dims)), initial=0))
    nunk = offsets[-1]
    if nunk == 0:
        return _zero_hom(M.dims, N.dims)
    rows: list[dict] = []
    for a, arr in enumerate(q.arrows):
        s, t = arr.source, arr.target
        ds_m, dt_m, dt_n = M.dims[s], M.dims[t], N.dims[t]
        base = len(rows)
        rows.extend({} for _ in range(dt_n * ds_m))
        # f_t[i, k] M(a)[k, j] at row (i, j), for every i
        for k, line in enumerate(M.maps[a].tolist()):
            for j, v in enumerate(line):
                if v:
                    for i in range(dt_n):
                        rows[base + i * ds_m + j][offsets[t] + i * dt_m + k] = v
        # -N(a)[i, k] f_s[k, j] at row (i, j), for every j; on a loop
        # (s = t) it can meet an f_t term
        for i, line in enumerate(N.maps[a].tolist()):
            for k, v in enumerate(line):
                if v:
                    for j in range(ds_m):
                        row = rows[base + i * ds_m + j]
                        c = offsets[s] + k * ds_m + j
                        x = (row.get(c, 0) - v) % p
                        if x:
                            row[c] = x
                        else:
                            del row[c]
    basis = _frozen(sparse_nullspace_basis(F, rows, nunk))
    if not len(basis):
        return _zero_hom(M.dims, N.dims)
    stacks = tuple(_cut(basis, M.dims, N.dims))
    for a, arr in enumerate(q.arrows):
        # a square with no entries (N at t or M at s is zero) always commutes
        if N.dims[arr.target] and M.dims[arr.source] and np.any(
                F.mul(stacks[arr.target], M.maps[a])
                != F.mul(N.maps[a], stacks[arr.source])):
            raise AssertionError("hom basis element fails commuting squares")
    return basis, stacks


@lru_cache(maxsize=1024)
def _zero_hom(source_dims: tuple[int, ...], target_dims: tuple[int, ...]):
    """The (vectors, stacks) of a zero Hom space, shared by every pair of
    modules with these dimension vectors: many pairs have no morphisms."""
    size = sum(m * n for m, n in zip(source_dims, target_dims))
    vectors = _frozen(np.zeros((0, size), dtype=np.int64))
    return vectors, tuple(_cut(vectors, source_dims, target_dims))


# ---------------------------------------------------------------------------
# Twists
# ---------------------------------------------------------------------------

def twist(action: QuiverAction, g, M: Representation,
          indecomposable: bool = False) -> Representation:
    """The module gM with (gM)(x) = M(g x), arrows transported with the
    action scalars: (gM)(a) = c * M(b) for g(a) = c b.

    Twisting is an autoequivalence, so what is known of M holds for gM:
    M's Loewy layers, once computed, give gM's, permuted by g, and with
    `indecomposable` (M is known to be) gM is recorded as indecomposable,
    so `decompose` returns it whole."""
    q = M.algebra.quiver
    F = M.F
    perm = [action.vertex(g, v) for v in range(q.n_vertices)]
    maps = []
    for a in range(q.n_arrows):
        c, b = action.arrow(g, a)
        maps.append(F.smul(c, M.maps[b]))
    gM = Representation(M.algebra, [M.dims[x] for x in perm], maps)
    if "_layers" in M.__dict__:
        gM._layers = tuple(tuple(layer[x] for x in perm) for layer in M._layers)
    if indecomposable:
        module_table(M.algebra).lookup("decompose", (gM,), lambda: None)
    return gM


def twist_morphism(action: QuiverAction, g, f: RepMorphism,
                   source: Representation, target: Representation) -> RepMorphism:
    """The morphism gf: gM -> gN with (gf)_x = f_{g x}, for f: M -> N and
    `source`, `target` the twists gM and gN."""
    return RepMorphism(source, target, [f.blocks[action.vertex(g, v)]
                                        for v in range(len(f.blocks))])


def module_stabilizer(action: QuiverAction, M: Representation) -> list:
    """{g : gM isomorphic to M} (a subgroup; tested elementwise, and gM is
    built only when g's vertex permutation fixes M's dimension vector)."""
    verts = range(M.algebra.quiver.n_vertices)
    return [g for g in action.group.elements
            if all(M.dims[action.vertex(g, v)] == M.dims[v] for v in verts)
            and is_isomorphic(twist(action, g, M), M)]


# ---------------------------------------------------------------------------
# Endomorphism algebras, indecomposability, Krull-Schmidt
# ---------------------------------------------------------------------------

def end_algebra(M: Representation):
    """(StructureConstants of End(M), hom basis).  The identity is included
    in the span automatically; its coordinates are solved for.  Memoized
    in the module table of M's algebra."""
    H = hom_basis(M, M)
    if not H.dimension:
        raise ValueError("End of the zero module is not an algebra here")
    E = module_table(M.algebra).lookup("end", (M,),
                                       lambda: _end_structure(M, H))
    return E, H


def _end_structure(M: Representation, H: HomSpace) -> StructureConstants:
    """Structure constants of End(M) over the basis H: all n^2 products
    b_i after b_j and the identity solved for in one elimination."""
    F, n = M.F, H.dimension
    if n == 1:
        # a brick: End(M) = F_p, and the one basis element is the identity
        if not all(np.array_equal(S[0], F.eye(d)) for S, d in zip(H.stacks, M.dims)):
            raise AssertionError("identity not in End(M) span")
        return StructureConstants.from_coo(F, 1, [0], [0], [0], [1], [1])
    prods = np.concatenate([np.einsum("ixy,jyz->ijxz", S, S).reshape(n * n, -1)
                            for S in H.stacks], axis=1) % F.p
    one = identity_morphism(M).to_vector()
    coords = solve_linear(F, H.vectors.T, np.vstack([prods, one]).T)
    if coords is None:
        if solve_linear(F, H.vectors.T, one) is None:
            raise AssertionError("identity not in End(M) span")
        raise AssertionError("End(M) not closed under composition")
    return StructureConstants(F, coords[:, :-1].T.reshape(n, n, n), coords[:, -1])


def end_radical(M: Representation) -> np.ndarray:
    """Echelon basis (rows) of rad End(M), in coordinates over the basis of
    end_algebra(M); memoized with it."""
    E, _ = end_algebra(M)
    if E.dim == 1:
        return _BRICK_RADICAL
    return module_table(M.algebra).lookup(
        "rad", (M,), lambda: _frozen(algebra_radical(E)))


# rad F_p = 0, the End radical of every brick
_BRICK_RADICAL = _frozen(np.zeros((0, 1), dtype=np.int64))


def is_indecomposable(M: Representation) -> bool:
    """dim(End(M)/rad End(M)) == 1: End(M) is local with residue field F_p;
    `decompose` reports a larger residue field with NonSplitEndError."""
    if M.is_zero():
        raise ValueError("zero module")
    E, _ = end_algebra(M)
    return E.dim - end_radical(M).shape[0] == 1


def _split_candidates(M: Representation):
    """(f, minimal polynomial of f, its factors) for endomorphisms f of M,
    as total matrices, drawn lazily in a fixed order over the End basis b:
    sum (k+1) b_k, each b_k, b_i + b_j and b_i b_j for i < j, and last the
    lift from `_frobenius_fixed`.  Only that lift needs End's structure
    constants and radical."""
    F = M.F
    mats = _totals(M, M, hom_basis(M, M).vectors)
    n = len(mats)

    def combination(x):
        return F.mul(x % F.p, mats.reshape(n, -1)).reshape(mats.shape[1:])

    def candidates():
        yield combination(np.arange(1, n + 1))
        yield from mats
        for i in range(n):
            for j in range(i + 1, n):
                yield F.add(mats[i], mats[j])
                yield F.mul(mats[i], mats[j])
        yield combination(_frobenius_fixed(M))

    for f in candidates():
        mp = minimal_polynomial(F, f)
        yield f, mp, factor_poly(F, mp)


def _splitting_element(drawn):
    """The first (f, mp, factors) of `drawn` whose minimal polynomial has
    two or more distinct irreducible factors; the module drawn from must
    have dim End(M)/rad > 1."""
    for f, mp, factors in drawn:
        if len(factors) > 1:
            return f, mp, factors
    raise AssertionError("a non-scalar Frobenius-fixed element did not split")


def _frobenius_fixed(M: Representation) -> np.ndarray:
    """End-basis coordinates of an endomorphism proved to split M, or the
    proof that none does.

    A = End(M)/rad is semisimple: a product of matrix rings over fields
    F_{p^k} (Wedderburn).  If A is commutative, a -> a^p is F_p-linear on
    A and fixes exactly the elements with all components in F_p, so the
    fixed subalgebra has one dimension per factor (Berlekamp's count).  One
    dimension proves A = F_{p^d}, d = dim A: M is indecomposable but not
    absolutely, and NonSplitEndError is raised.  Otherwise a non-scalar
    fixed element has two distinct components in F_p, so its minimal
    polynomial divides x^p - x with two distinct roots, and so does that
    of its lift to End(M) (rad End(M) is nilpotent): the lift splits M.  A
    non-commutative A has nontrivial idempotents, so reaching it here is
    an internal error.
    """
    F = M.F
    E, _ = end_algebra(M)
    # end_radical is a nullspace basis, not reduced: quotient_map needs R
    R, piv = rref(F, end_radical(M))
    Q = quotient_map(F, R[:len(piv)], E.dim)
    # A's basis: the images of the b_k at the non-pivot columns of R
    top = [k for k in range(E.dim) if k not in piv]
    unit, d = F.eye(E.dim)[top], len(top)
    commutators = [F.sub(E.multiply(x, y), E.multiply(y, x))
                   for x in unit for y in unit]
    if np.any(F.mul(Q, np.stack(commutators, axis=1))):
        raise AssertionError(f"no splitting element found for the module "
                             f"with dimension vector {M.dims} and Loewy layers "
                             f"{M.label()}, whose End/rad is not commutative")
    frob = F.mul(Q, np.stack([power(E.multiply, u, F.p, E.one) for u in unit], 1))
    fixed = nullspace_basis(F, F.sub(frob, F.eye(d)))
    if fixed.shape[0] == 1:
        raise NonSplitEndError(
            f"the module with dimension vector {M.dims} and Loewy layers "
            f"{M.label()} is indecomposable over F_{F.p} but not absolutely: "
            f"End/rad is the field of order {F.p}^{d}, of degree {d}")
    lift = np.zeros(E.dim, dtype=np.int64)
    lift[top] = next(y for y in fixed if rank(F, np.stack([y, F.mul(Q, E.one)])) == 2)
    return lift


@lru_cache(maxsize=1024)
def _layout(source_dims: tuple[int, ...], target_dims: tuple[int, ...]):
    """Row and column in the total matrix, target by source, of each
    coordinate of a morphism vector between modules of these dimension
    vectors: the vertex blocks in vertex order, each row-major."""
    rows, cols, os, ot = [], [], 0, 0
    for a, b in zip(source_dims, target_dims):
        for x in range(ot, ot + b):
            rows += [x] * a
            cols += range(os, os + a)
        os, ot = os + a, ot + b
    return (_frozen(np.array(rows, dtype=np.intp)),
            _frozen(np.array(cols, dtype=np.intp)))


def _totals(M: Representation, N: Representation, vecs: np.ndarray) -> np.ndarray:
    """Morphism vectors M -> N as stacked block-diagonal total matrices."""
    rows, cols = _layout(M.dims, N.dims)
    out = np.zeros((len(vecs), N.total_dim, M.total_dim), dtype=np.int64)
    out[:, rows, cols] = vecs
    return out


def _matrix_to_morphism(M: Representation, total: np.ndarray) -> RepMorphism:
    """The endomorphism of M read off the diagonal blocks of `total`."""
    return morphism_from_vector(M, M, total[_layout(M.dims, M.dims)])


def sub_from_rows(N: Representation, rows: list[np.ndarray]):
    """Subrepresentation spanned per vertex by the given row bases (must be
    arrow-closed).  Returns (S, inclusion)."""
    F, q = N.F, N.algebra.quiver
    rows = [row_space(F, r) if r.shape[0] else r for r in rows]
    dims = [r.shape[0] for r in rows]
    maps = []
    for a, arr in enumerate(q.arrows):
        s, t = arr.source, arr.target
        if dims[s] == 0 or dims[t] == 0:
            maps.append(F.zeros(dims[t], dims[s]))
            continue
        img = F.mul(N.maps[a], rows[s].T)
        coords = solve_linear(F, rows[t].T, img)
        if coords is None:
            raise ValueError("row spaces are not arrow-closed")
        maps.append(coords)
    S = Representation(N.algebra, dims, maps)
    incl = RepMorphism(S, N, [rows[v].T.copy() for v in range(q.n_vertices)])
    if not incl.is_valid():
        raise AssertionError("subrep inclusion fails commutation")
    return S, incl


def _image_subrep(e: RepMorphism):
    """The image of an idempotent endomorphism as a representation, with
    inclusion and projection morphisms."""
    M = e.source
    F = M.F
    sub, incl = sub_from_rows(M, [b.T for b in e.blocks])
    # projection: solve incl . proj = e
    proj = RepMorphism(M, sub, [
        solve_linear(F, i, b) if i.shape[1] else F.zeros(0, b.shape[1])
        for i, b in zip(incl.blocks, e.blocks)])
    if not proj.is_valid():
        raise AssertionError("image projection fails commutation")
    return sub, incl, proj


@dataclass
class Summand:
    rep: Representation
    inclusion: RepMorphism   # summand -> M
    projection: RepMorphism  # M -> summand


def decompose(M: Representation) -> list[Summand]:
    """Full Krull-Schmidt decomposition with explicit witnesses.

    Summands are returned in canonical order (dim vector lex, then Loewy
    label); non-isomorphic summands with equal keys keep the order the
    split finds them in, which depends on M's bases, not only on its
    isomorphism class.  The inclusion/projection pairs compose to idempotents of M
    summing to the identity.  An indecomposable M is its own summand, with
    identity witnesses.  Memoized in the module table of M's algebra, with
    each summand's Loewy layers.
    """
    if M.is_zero():
        return []
    parts = module_table(M.algebra).lookup("decompose", (M,),
                                           lambda: _krull_schmidt(M))
    if parts is None:
        return [Summand(M, identity_morphism(M), identity_morphism(M))]
    out = []
    for dims, maps, layers, inc, prj in parts:
        S = Representation(M.algebra, dims, maps)
        S._layers = layers   # seeds the cached property
        out.append(Summand(S, RepMorphism(S, M, list(inc)),
                           RepMorphism(M, S, list(prj))))
    return out


def _krull_schmidt(M: Representation):
    """The summands of M as (dims, maps, Loewy layers, inclusion blocks,
    projection blocks), or None when M is indecomposable.  M's first
    splitting candidate is tried before M is certified indecomposable, so a
    module it splits builds no End structure constants or radical.  A piece
    on the stack is cut by one splitting element f into all of its primary
    components ker q(f)^m, the images of the CRT idempotents of the primary
    factors q^m of the minimal polynomial; only pieces with dim End/rad > 1
    go back on the stack."""
    drawn = _split_candidates(M) if hom_basis(M, M).dimension > 1 else iter(())
    first = next(drawn, None)
    if first is None or len(first[2]) < 2:
        if is_indecomposable(M):
            return None
        first = _splitting_element(drawn)
    F = M.F
    work = [(Summand(M, identity_morphism(M), identity_morphism(M)), first)]
    out: list[Summand] = []
    while work:
        cur, split = work.pop()
        f, mp, factors = split or _splitting_element(_split_candidates(cur.rep))
        for q, m in factors:
            qm = power(lambda a, b: poly_mul(F, a, b), q, m, [1])
            rest = poly_divmod(F, mp, qm)[0]
            # u rest = 1 mod q^m: the idempotent is 1 on ker q(f)^m, 0 on the rest
            u = poly_gcd_ext(F, rest, qm)[1]
            e = poly_eval_matrix(F, poly_divmod(F, poly_mul(F, u, rest), mp)[1], f)
            sub, incl, proj = _image_subrep(_matrix_to_morphism(cur.rep, e))
            piece = Summand(sub, cur.inclusion.compose(incl),
                            proj.compose(cur.projection))
            if is_indecomposable(sub):
                out.append(piece)
            else:
                work.append((piece, None))
    out.sort(key=lambda s: (s.rep.dims, s.rep.label()))
    check_summands(M, out)
    return [(s.rep.dims, s.rep.maps, s.rep._layers,
             [_frozen(b) for b in s.inclusion.blocks],
             [_frozen(b) for b in s.projection.blocks]) for s in out]


def check_summands(M: Representation, summands: list[Summand]):
    """Raise unless the summands split M: their dimensions add up to M's,
    each projection after its inclusion is the identity, and the
    idempotents inclusion after projection sum to the identity of M."""
    F = M.F
    if sum(s.rep.total_dim for s in summands) != M.total_dim:
        raise AssertionError("decomposition loses dimension")
    for s in summands:
        pi = s.projection.compose(s.inclusion)
        if not all(np.array_equal(b, F.eye(b.shape[0])) for b in pi.blocks):
            raise AssertionError("summand witness is not a splitting")
    parts = [s.inclusion.compose(s.projection).blocks for s in summands]
    if any(np.any(F.sub(sum(bs), F.eye(len(bs[0])))) for bs in zip(*parts)):
        raise AssertionError("summand idempotents do not sum to the identity")


def is_isomorphic(M: Representation, N: Representation) -> bool:
    return isomorphism(M, N) is not None


def isomorphism(M: Representation, N: Representation):
    """An explicit isomorphism M -> N, or None.  Exact and deterministic.

    First a scan for an invertible hom basis element.  It is complete
    when End(M) is local: let u = sum c_i f_i be an isomorphism with
    inverse sum d_j g_j (g_j in the hom basis of N -> M).  Then
    1 = sum c_i d_j g_j f_i, and non-units of a local ring do not sum to
    a unit, so some g_j f_i is a unit.  That f_i is a split mono between
    modules of equal dimension, hence invertible, and the scan finds it.
    Otherwise both modules are decomposed and their Krull-Schmidt summands
    matched by the same scan, and the isomorphism is assembled from the
    matched pieces.
    """
    if M.dims != N.dims:
        return None
    if M.is_zero():
        return zero_morphism(M, N)
    H = hom_basis(M, N)
    if not H.dimension:
        return None
    for f in H.basis:
        if f.is_invertible():
            return f
    # an indecomposable N isomorphic to M would make End(M) local too
    if is_indecomposable(M) or is_indecomposable(N):
        return None
    return _match_summands(M, N)


def _match_summands(M: Representation, N: Representation):
    """Isomorphism of decomposable modules by Krull-Schmidt: each summand
    of M is matched to an unused isomorphic summand of N (greedy matching
    is exact, isomorphism being an equivalence), and the isomorphism is the
    sum of incl_N u proj_M over the matched pairs."""
    msum, nsum = decompose(M), decompose(N)
    if len(msum) != len(nsum):
        return None
    pairs = match_summands([s.rep for s in msum], [s.rep for s in nsum])
    if pairs is None:
        return None
    iso = morphism_from_vector(M, N, sum(
        nsum[k].inclusion.compose(u).compose(s.projection).to_vector()
        for s, (k, u) in zip(msum, pairs)))
    if not iso.is_valid() or not iso.is_invertible():
        raise AssertionError("matched summands do not assemble an isomorphism")
    return iso


def combine(H: HomSpace, coeffs) -> RepMorphism:
    """The morphism sum_e coeffs[e] b_e over the basis b of H."""
    F = H.source.F
    c = np.asarray(coeffs, dtype=np.int64) % F.p
    return morphism_from_vector(H.source, H.target, F.mul(c, H.vectors))


# ---------------------------------------------------------------------------
# Isomorphism classes
# ---------------------------------------------------------------------------

class IsoClasses:
    """Pairwise non-isomorphic modules, bucketed by dimension vector: the
    one place that decides whether a module is already known up to
    isomorphism.

    A lookup of M tries `reps[i] is M` and then `isomorphism(reps[i], M)`
    over the modules with M's dimension vector, in insertion order; the
    first match wins.  Modules passed to the constructor are taken as
    given, without checking that they are pairwise non-isomorphic.
    """

    def __init__(self, reps=()):
        self.reps: list[Representation] = []
        self._buckets: dict[tuple[int, ...], list[int]] = {}
        for M in reps:
            self.append(M)

    def __len__(self) -> int:
        return len(self.reps)

    def _find(self, M: Representation):
        """(i, u) as for `locate`, with u None when reps[i] is M."""
        bucket = self._buckets.get(M.dims, ())
        for i in bucket:
            if self.reps[i] is M:
                return i, None
        for i in bucket:
            u = isomorphism(self.reps[i], M)
            if u is not None:
                return i, u
        return None

    def locate(self, M: Representation):
        """(i, u) with u: reps[i] -> M an isomorphism, or None."""
        found = self._find(M)
        if found is None or found[1] is not None:
            return found
        return found[0], identity_morphism(M)

    def index(self, M: Representation) -> int:
        """The index of M's class; KeyError when it has none."""
        found = self._find(M)
        if found is None:
            raise KeyError(f"module {M.dims} has no isomorphism class here")
        return found[0]

    def append(self, M: Representation) -> int:
        """Store M as a new class, unchecked (after a `locate` miss)."""
        self._buckets.setdefault(M.dims, []).append(len(self.reps))
        self.reps.append(M)
        return len(self.reps) - 1

    def add(self, M: Representation) -> int:
        """The index of M's class, appending M when the class is new."""
        found = self._find(M)
        return self.append(M) if found is None else found[0]


def match_summands(xs: list[Representation], ys: list[Representation]):
    """Greedy matching up to isomorphism: each x, in order, takes the first
    unused y isomorphic to it.  [(k, u: x -> ys[k])] per x, or None when
    some x finds no partner."""
    free = list(range(len(ys)))
    out = []
    for x in xs:
        for k in free:
            u = isomorphism(x, ys[k]) if ys[k].dims == x.dims else None
            if u is not None:
                break
        else:
            return None
        free.remove(k)
        out.append((k, u))
    return out


# ---------------------------------------------------------------------------
# Radical powers relative to a complete indecomposable list
# ---------------------------------------------------------------------------

class RadicalCalculator:
    """rad^n(M, N) spaces for M, N drawn from a fixed complete list of
    indecomposables (canonical representatives, pairwise non-isomorphic).

    rad^1(M, N) = Hom(M, N) for M != N in the list, rad End(M) on the
    diagonal.  Higher powers grow one source row at a time,
    rad^{n+1}(M_i, N) = sum_Z rad^1(Z, N) . rad^n(M_i, Z), and a row of
    rad^n, like each rad^1 row it composes with, is built on first use.
    Each rad^n(M_i, Z) is composed with all of rad^1(Z, -) at once, as
    one product of total matrices (`_compose_spans`).
    So `ar.category_rank`, which tests rad^n = 0 on the projective rows
    alone, grows no other row beyond the rad^1 rows those compose with;
    with a closed knit the algebra is representation-finite and rad is
    nilpotent (Auslander 1974), so its stable rank is its rank.
    """

    def __init__(self, reps: list[Representation]):
        self.reps = reps
        self.classes = IsoClasses(reps)
        self.F = reps[0].F if reps else None
        # source i -> [n-1] -> {j: echelon basis of nonzero rad^n(i, j)}
        self._rows: dict[int, list[dict[int, np.ndarray]]] = {}
        # middle k -> rad^1(k, -) stacked over its targets (`_rad1_stack`)
        self._stacks: dict[int, tuple] = {}

    def hom(self, i: int, j: int) -> HomSpace:
        return hom_basis(self.reps[i], self.reps[j])

    def _rad1_row(self, i: int) -> dict[int, np.ndarray]:
        row = {j: self.hom(i, j).vectors for j in range(len(self.reps))}
        # rad End(reps[i]) on the diagonal, in echelon form
        row[i] = self.F.mul(end_radical(self.reps[i]), row[i])
        return {j: row_space(self.F, v) if j == i else v
                for j, v in row.items() if len(v)}

    def _row(self, i: int, n: int) -> dict[int, np.ndarray]:
        """The nonzero rad^n(reps[i], -), keyed by target, for n >= 1."""
        layers = self._rows.get(i)
        if layers is None:
            layers = self._rows[i] = [self._rad1_row(i)]
        while len(layers) < n:
            prev = layers[-1]
            pieces: dict[int, list[np.ndarray]] = {}
            for k, A in prev.items():
                # rad^{n+1}(i, j) lies in rad^n(i, j)
                for j, span in self._compose_spans(i, k, A, prev):
                    pieces.setdefault(j, []).append(span)
            nxt: dict[int, np.ndarray] = {}
            for j, parts in pieces.items():
                span = row_space(self.F, np.concatenate(parts, axis=0))
                if span.shape[0]:
                    nxt[j] = span
            layers.append(nxt)
        return layers[n - 1]

    def rad(self, i: int, j: int, n: int) -> np.ndarray:
        """Echelon row basis of rad^n(reps[i], reps[j]) as morphism vectors."""
        if n <= 0:
            return row_space(self.F, self.hom(i, j).vectors)
        rows = self._row(i, n).get(j)
        if rows is None:
            return np.zeros((0, _pair_len(self.reps[i], self.reps[j])), dtype=np.int64)
        # a rad^1 row off the diagonal is the Hom basis as solved
        return row_space(self.F, rows) if n == 1 and i != j else rows

    def _rad1_stack(self, k: int):
        """rad^1(reps[k], -) stacked over its targets j: the total matrices
        of every basis morphism of every target, one above the other, and
        per target j its first row and basis size."""
        if k not in self._stacks:
            mats, starts, at = [], {}, 0
            for j, B in self._row(k, 1).items():
                mats.append(_totals(self.reps[k], self.reps[j], B)
                            .reshape(-1, self.reps[k].total_dim))
                starts[j] = at, B.shape[0]
                at += mats[-1].shape[0]
            self._stacks[k] = (np.concatenate(mats) if mats else
                               np.zeros((0, self.reps[k].total_dim), dtype=np.int64),
                               starts)
        return self._stacks[k]

    def _compose_spans(self, i: int, k: int, A: np.ndarray, targets):
        """(j, all compositions B o A) for A in the rows of Hom(i, k), B in
        the rad^1(k, j) basis and j in `targets`, as stacked morphism
        vectors in (B, A) order: one product of total matrices with the
        stack of `_rad1_stack(k)`, its diagonal blocks read off per target."""
        stack, starts = self._rad1_stack(k)
        na, di = A.shape[0], self.reps[i].total_dim
        prod = self.F.mul(stack, _totals(self.reps[i], self.reps[k], A)
                          .transpose(1, 0, 2).reshape(-1, na * di))
        for j, (at, nb) in starts.items():
            if j in targets:
                dj = self.reps[j].total_dim
                rows, cols = _layout(self.reps[i].dims, self.reps[j].dims)
                yield j, (prod[at: at + nb * dj].reshape(nb, dj, na, di)
                          [:, rows, :, cols].transpose(1, 2, 0).reshape(nb * na, -1))

    def rad_dim(self, i: int, j: int, n: int) -> int:
        """dim rad^n(reps[i], reps[j]) for n >= 1, a row count that needs
        no echelon form."""
        rows = self._row(i, n).get(j)
        return 0 if rows is None else rows.shape[0]

    def all_zero_at(self, n: int) -> bool:
        return not any(self._row(i, n) for i in range(len(self.reps)))

    def membership_level(self, i: int, j: int, f: RepMorphism) -> int:
        """Largest n <= RADICAL_CUTOFF with f in rad^n; 0 if f is not
        radical, RADICAL_CUTOFF + 1 for f = 0."""
        if f.is_zero():
            return RADICAL_CUTOFF + 1
        vec = f.to_vector()
        level = 0
        for n in range(1, RADICAL_CUTOFF + 1):
            basis = self.rad(i, j, n)
            if basis.shape[0] and in_row_space(self.F, basis, vec):
                level = n
            else:
                break
        return level

    def index_of(self, M: Representation) -> int:
        return self.classes.index(M)


def _pair_len(M: Representation, N: Representation) -> int:
    return sum(dm * dn for dm, dn in zip(M.dims, N.dims))


def irr_space(calc: RadicalCalculator, M: Representation, N: Representation):
    """(dim irr(M, N), representative morphisms completing rad^2 to rad)."""
    i, j = calc.index_of(M), calc.index_of(N)
    r1 = calc.rad(i, j, 1)
    r2 = calc.rad(i, j, 2)
    d = r1.shape[0] - r2.shape[0]
    reps = []
    if d > 0:
        F = calc.F
        span = r2
        for vec in r1:
            if in_row_space(F, span, vec):
                continue
            reps.append(morphism_from_vector(calc.reps[i], calc.reps[j], vec))
            span = row_space(F, np.concatenate([span, vec.reshape(1, -1)]))
            if len(reps) == d:
                break
    return d, reps
