"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Every
elimination result is the unique reduced row echelon form or is read off
it, so every basis produced here is reproducible across runs.  Primes are
kept below 2^26, so a product of two entries times an inner dimension up
to 2048 stays below 2^63; `PrimeField.mul` reduces after each slice of
2048 beyond that.

Every elimination (`rref`, `rank`, `row_space`, `solve_linear`,
`nullspace_basis`, `sparse_nullspace_basis`, `in_row_space`) runs one
Gauss-Jordan kernel with three paths, chosen from the shape and the
nonzero count of its input, an array or sparse rows:

* at most 64 entries, the bulk of the traffic: Python int lists, one
  `tolist()` in and no array at all for `rank`, `in_row_space` and a
  nullspace.  Below this size the fixed cost of each numpy call outweighs
  the work, and dict rows cost two to three times as much as lists.
* fewer nonzeros than 0.35 of cols * min(rows, cols): rows as
  {col: value} dicts with a column -> rows occupancy index, so a pivot
  touches only the rows with a nonzero in its column, and in each only
  the pivot row's nonzeros.  Commuting-square (Hom) systems are mostly of
  this kind.  This path's work goes with the nonzeros, the array path's
  with the pivots, at most min(rows, cols), times whole rows; so a tall
  matrix must be sparser to gain, and on tall low-rank matrices such as
  minimal-polynomial systems the array path is several times faster.
* everything else: an int64 array; each pivot updates the columns from
  the pivot on, of only the rows with a nonzero in the pivot column
  unless those are most of the rows.

All stay exact: every update term is a product of two reduced entries,
below p^2 < 2^52, and is reduced at once.  As the reduced form is unique,
the three paths return the same matrix whatever rows they pivot on.

Also provides the algebra-level primitives consumed by the module-category
code: sparse tensors over F_p, structure-constant algebras stored by their
nonzero constants, Jacobson radical via the trace form (valid since
char > dim), minimal polynomials, and factoring over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import gcd

import numpy as np


# Largest admissible prime, exclusive: p^2 * 2048 < 2^63 keeps every matrix
# product with inner dimension up to _MUL_SLICE exact in int64.
PRIME_LIMIT = 2 ** 26
_MUL_SLICE = 2048


class FieldTooSmallError(Exception):
    """Raised when p does not exceed the dimension of an algebra whose
    radical is requested (the trace-form criterion needs char > dim)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p.

    p must be prime and below 2^26, not divide the group order in play,
    and satisfy p = 1 (mod exp G) so that all characters of the acting
    group take values in F_p.  `for_group` picks the default.
    """

    p: int

    def __post_init__(self):
        if self.p >= PRIME_LIMIT:
            raise ValueError(
                f"field prime {self.p} is too large: p must be below "
                f"2^26 = {PRIME_LIMIT} so that products stay exact in int64")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def for_group(exponent: int = 1) -> "PrimeField":
        """Smallest prime >= 1009 with p = 1 (mod exponent)."""
        p = 1009
        while not (_is_prime(p) and (p - 1) % exponent == 0):
            p += 1
        return PrimeField(p)

    # -- scalar arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    @lru_cache(maxsize=None)
    def primitive_root_of_unity(self, n: int) -> int:
        """Least r in [1, p) of exact multiplicative order n.

        Some a^((p-1)/n) has order exactly n (any generator a of F_p^*
        does), and the elements of order n are its powers with exponent
        prime to n; the least of those is returned.
        """
        p = self.p
        if (p - 1) % n != 0:
            raise ValueError(f"F_{p} has no primitive {n}-th root of unity")
        qs = _prime_divisors(n)
        for a in range(1, p):
            r = pow(a, (p - 1) // n, p)
            if all(pow(r, n // q, p) != 1 for q in qs):
                return min(pow(r, k, p) for k in range(1, n + 1) if gcd(k, n) == 1)
        raise AssertionError("unreachable")

    # -- matrices ---------------------------------------------------------

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def mat(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of reduced matrices, reduced mod p; exact for any
        p < 2^26, as p**2 * 2048 < 2**63 and a longer inner dimension is
        summed mod p over slices of 2048."""
        k, p = a.shape[-1], self.p
        if k <= _MUL_SLICE:
            return (a @ b) % p
        out = 0
        for s in range(0, k, _MUL_SLICE):
            # b contracts along its axis -2, or its only axis for a vector
            cut = slice(s, s + _MUL_SLICE)
            bs = b[cut] if b.ndim == 1 else b[..., cut, :]
            out = (out + a[..., cut] @ bs) % p
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    def smul(self, c: int, a: np.ndarray) -> np.ndarray:
        return (int(c) % self.p * a) % self.p

    def block_diag(self, blocks, shape: tuple[int, int]) -> np.ndarray:
        """The matrix with `blocks` down its diagonal, each starting where
        the previous one ends.  `shape` is their summed shape, which the
        caller knows from its dimension vectors."""
        out = np.zeros(shape, dtype=np.int64)
        r = c = 0
        for b in blocks:
            h, w = b.shape
            out[r: r + h, c: c + w] = b
            r, c = r + h, c + w
        return out


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

# Matrices with at most this many entries are eliminated on Python int
# lists: below it the fixed cost of each numpy call outweighs the work.
_LIST_CELLS = 64
# A larger matrix is eliminated on sparse rows when it has fewer nonzeros
# than this share of cols * min(rows, cols).  On the matrices of one pass
# of each benchmark workload this choice came within 5% of the faster path
# for every matrix.  Cuts up to 0.5 did as well; lower cuts, and a cut on
# the nonzero share of rows * cols alone, did worse.
_SPARSE_SHARE = 0.35


def _eliminate_rows(p: int, rows: list, ncols: int):
    """Gauss-Jordan elimination of reduced int lists, in place."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow = [x * inv % p for x in prow]
        rows[r] = prow
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _eliminate_sparse(p: int, rows: list):
    """Gauss-Jordan elimination of reduced {col: value} rows without zero
    values, in place.  Returns the rows, pivot rows first in pivot order
    and then the rest, which end empty, and the pivot columns.

    `occ[c]` holds the rows with a nonzero in column c.  Row operations
    never make a zero column nonzero, and the rows not yet used as pivots
    are zero left of the current column, so the columns are those of
    `occ` in ascending order.  Any unused row with a nonzero there may be
    the pivot, as the reduced form is unique; the shortest is taken.
    """
    occ: dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            occ.setdefault(c, set()).add(i)
    used = [False] * len(rows)
    order, pivots = [], []
    for c in sorted(occ):
        hit = occ[c]
        i = best = -1
        for j in hit:
            if not used[j] and (best < 0 or len(rows[j]) < best):
                i, best = j, len(rows[j])
        if i < 0:
            continue
        prow = rows[i]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            for k in prow:
                prow[k] = prow[k] * inv % p
        terms = [(k, v, occ[k]) for k, v in prow.items()]
        for j in [j for j in hit if j != i]:
            row = rows[j]
            f, get = row[c], row.get
            for k, v, rows_at_k in terms:
                # f * v is nonzero mod p, so a zero sum was an entry of row
                x = (get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                    rows_at_k.add(j)
                else:
                    del row[k]
                    rows_at_k.discard(j)
        used[i] = True
        order.append(i)
        pivots.append(c)
    order += [i for i in range(len(rows)) if not used[i]]
    return [rows[i] for i in order], pivots


def _eliminate_array(p: int, R: np.ndarray):
    """Gauss-Jordan elimination of a reduced int64 array, which it may
    overwrite.

    Each pivot updates only columns from the pivot onward (the pivot row is
    zero before it) and, when at most half the rows have a nonzero in the
    pivot column, only those rows; otherwise one whole-matrix update is
    cheaper than gathering the rows.
    """
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), -1, p)
        if inv != 1:
            R[r] = R[r] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        hits = np.count_nonzero(col)
        if 2 * hits > nrows:
            R = (R - np.outer(col, R[r])) % p
        elif hits:
            hit = np.nonzero(col)[0]
            R[hit, c:] = (R[hit, c:] - np.outer(col[hit], R[r, c:])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def _sparse_pays(shape, nnz: int) -> bool:
    return nnz < _SPARSE_SHARE * shape[1] * min(shape)


def _eliminate(p: int, A: np.ndarray):
    """(R, pivot columns) of the reduced row echelon form of A mod p.  R is
    a list of int lists (at most _LIST_CELLS entries), a list of
    {col: value} dicts (sparse A) or an int64 array.  A is never written."""
    if A.size <= _LIST_CELLS:
        return _eliminate_rows(p, (A % p).tolist(), A.shape[1])
    A = A % p
    keys = np.flatnonzero(A)
    if not _sparse_pays(A.shape, keys.size):
        return _eliminate_array(p, A)
    rows = [{} for _ in range(A.shape[0])]
    at, col = np.divmod(keys, A.shape[1])
    for i, c, v in zip(at.tolist(), col.tolist(), A.reshape(-1)[keys].tolist()):
        rows[i][c] = v
    return _eliminate_sparse(p, rows)


def _eliminate_dict_rows(p: int, rows: list, ncols: int):
    """`_eliminate` of the matrix with reduced {col: value} rows without
    zero values, which it may overwrite, by the same choice of path."""
    shape = (len(rows), ncols)
    if shape[0] * ncols <= _LIST_CELLS:
        return _eliminate_rows(
            p, [[row.get(c, 0) for c in range(ncols)] for row in rows], ncols)
    if _sparse_pays(shape, sum(map(len, rows))):
        return _eliminate_sparse(p, rows)
    return _eliminate_array(p, _as_array(rows, shape))


def _as_array(R, shape) -> np.ndarray:
    """The matrix R, an array, int lists or {col: value} rows, as an array."""
    if isinstance(R, np.ndarray):
        return R
    if not (R and isinstance(R[0], dict)):
        return np.array(R, dtype=np.int64).reshape(shape)
    out = np.zeros(shape[0] * shape[1], dtype=np.int64)
    out[[i * shape[1] + c for i, row in enumerate(R) for c in row]] = \
        [v for row in R for v in row.values()]
    return out.reshape(shape)


def rref(F: PrimeField, A: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot column list)."""
    R, pivots = _eliminate(F.p, A)
    return _as_array(R, A.shape), pivots


def rank(F: PrimeField, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(_eliminate(F.p, A)[1])


def row_space(F: PrimeField, A: np.ndarray) -> np.ndarray:
    """Echelon basis of the row space (rows of the result)."""
    if A.shape[0] == 0:
        return A.copy()
    R, piv = rref(F, A)
    return R[: len(piv)]


def _complement(p: int, R, piv: list, n: int) -> np.ndarray:
    """Q with Q[:, free] = I and Q[:, piv] = -R[:, free]^T for the reduced
    echelon rows R with pivot columns piv, R as `_eliminate` returns it;
    Q R^T = 0.  List and dict rows are read entry by entry into one
    assignment."""
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    if isinstance(R, np.ndarray):
        Q = np.zeros((len(free), n), dtype=np.int64)
        Q[range(len(free)), free] = 1
        if piv:
            Q[:, piv] = -R[: len(piv)][:, free].T % p
        return Q
    slot = {c: t for t, c in enumerate(free)}
    at, vals = [t * n + c for t, c in enumerate(free)], [1] * len(free)
    for pc, row in zip(piv, R):
        for c, v in (row.items() if isinstance(row, dict) else enumerate(row)):
            if v and c in slot:
                at.append(slot[c] * n + pc)
                vals.append(p - v)
    Q = np.zeros(len(free) * n, dtype=np.int64)
    Q[at] = vals
    return Q.reshape(len(free), n)


def quotient_map(F: PrimeField, rows: np.ndarray, n: int) -> np.ndarray:
    """Matrix of the quotient map F^n -> F^n / span(rows).

    `rows` must be a reduced row echelon basis, as `row_space` returns.  The
    quotient is coordinatized by the free (non-pivot) columns: the map is the
    identity on them and minus the transposed free part of `rows` on the
    pivots, so it kills every row and sends each free unit vector to a unit
    vector.
    """
    piv = [int(c) for c in np.argmax(rows != 0, axis=1)] if rows.size else []
    return _complement(F.p, rows, piv, n)


def solve_linear(F: PrimeField, A: np.ndarray, B: np.ndarray):
    """Solve A X = B exactly.

    Returns the lexicographically first solution under reduced row echelon
    pivots (free variables set to 0), or None if the system is inconsistent.
    """
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row mismatch: {A.shape} vs {B.shape}")
    n = A.shape[1]
    k = B.shape[1] if B.ndim == 2 else 1
    R, piv = rref(F, np.concatenate([A, B.reshape(A.shape[0], k)], axis=1))
    # any pivot in the B-block means inconsistency
    if piv and piv[-1] >= n:
        return None
    X = F.zeros(n, k)
    X[piv] = R[: len(piv), n:]
    return X if B.ndim == 2 else X[:, 0]


def nullspace_basis(F: PrimeField, A: np.ndarray) -> np.ndarray:
    """Echelon-normalized basis of {x : A x = 0}, rows of the result.

    Basis size is cols - rank(A).  Free variable order (ascending column
    index) fixes the basis deterministically.
    """
    rows, cols = A.shape
    if cols == 0:
        return F.zeros(0, 0)
    if rows == 0:
        return F.eye(cols)
    return _complement(F.p, *_eliminate(F.p, A), cols)


def sparse_nullspace_basis(F: PrimeField, rows: list, ncols: int) -> np.ndarray:
    """`nullspace_basis` of the matrix with the given reduced
    {col: value} rows without zero values, which it may overwrite.  On the
    sparse path the matrix is never built densely."""
    return _complement(F.p, *_eliminate_dict_rows(F.p, rows, ncols), ncols)


def in_row_space(F: PrimeField, basis: np.ndarray, v: np.ndarray) -> bool:
    """Membership of vector v in the row space of `basis`: v is a
    combination of the rows exactly when it adds no pivot to them."""
    k = basis.shape[0]
    if k == 0:
        return not np.any(v % F.p)
    piv = _eliminate(F.p, np.concatenate([basis.T, v.reshape(-1, 1)], axis=1))[1]
    return not piv or piv[-1] != k


# ---------------------------------------------------------------------------
# Sparse tensors
# ---------------------------------------------------------------------------

def match_pairs(a: np.ndarray, b: np.ndarray):
    """All index pairs (i, j) with a[i] == b[j], as two index arrays ordered
    by i, then by j."""
    order = np.argsort(b, kind="stable")
    sb = b[order]
    lo = np.searchsorted(sb, a, side="left")
    cnt = np.searchsorted(sb, a, side="right") - lo
    ia = np.repeat(np.arange(a.size), cnt)
    first = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return ia, order[first + np.arange(ia.size)]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    return np.flatnonzero(np.concatenate((a[:1] == a[:1], a[1:] != a[:-1])))


def coalesce(F: PrimeField, keys: np.ndarray, vals: np.ndarray):
    """Canonical form of a sparse tensor given as (linear key, value) terms:
    keys sorted and distinct, values of equal keys summed mod p, zeros
    dropped.  Terms are reduced mod p before summing."""
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = _run_starts(keys)
    sums = np.add.reduceat(vals[order] % F.p, heads) % F.p
    nz = sums != 0
    return keys[heads][nz], sums[nz]


# ---------------------------------------------------------------------------
# Structure-constant algebras
# ---------------------------------------------------------------------------

class StructureConstants:
    """A finite-dimensional associative unital algebra over F_p.

    The structure constants are stored sparsely, as COO arrays
    (I, J, K, C) sorted by K: b_I * b_J has coefficient C at b_K, and
    entries with the same (I, J, K) add up.  `one` is the coordinate vector
    of the identity.
    """

    def __init__(self, F: PrimeField, table: np.ndarray, one: np.ndarray):
        """From a dense table: `table[i, j]` is the coordinate vector of
        b_i * b_j."""
        table = np.asarray(table, dtype=np.int64) % F.p
        n = table.shape[0]
        if table.shape != (n, n, n):
            raise ValueError("bad table shape")
        K, I, J = np.nonzero(table.transpose(2, 0, 1))
        self._store(F, n, I, J, K, table[I, J, K], one)

    @classmethod
    def from_coo(cls, F: PrimeField, dim: int, I, J, K, C,
                 one: np.ndarray) -> "StructureConstants":
        """From entries in any order; repeated (I, J, K) entries add up."""
        I, J, K, C = (np.asarray(a, dtype=np.int64) for a in (I, J, K, C))
        order = np.argsort(K, kind="stable")
        A = cls.__new__(cls)
        A._store(F, dim, I[order], J[order], K[order], C[order] % F.p, one)
        return A

    def _store(self, F, dim, I, J, K, C, one):
        """Entries must be reduced and sorted by K, so a product reduces
        over the runs of equal K that start at `_heads`."""
        self.F = F
        self.dim = dim
        self.one = np.asarray(one, dtype=np.int64) % F.p
        self.I, self.J, self.K, self.C = I, J, K, C
        self._heads = _run_starts(K)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = self.F.p
        out = np.zeros(self.dim, dtype=np.int64)
        if self.C.size:
            # (x_i b_i)(y_j b_j) = sum x_i y_j C b_K, each term below p
            terms = (x % p)[self.I] * (y % p)[self.J] % p * self.C % p
            out[self.K[self._heads]] = np.add.reduceat(terms, self._heads) % p
        return out

    def mult_entries(self, x: np.ndarray, left: bool):
        """The matrix of y -> x*y (left) or y -> y*x as sparse terms
        (rows, cols, values), rows ascending; terms at one position add up.
        A stack of elements x gives (owner, rows, cols, values), by owner."""
        p = self.F.p
        fixed, free = (self.I, self.J) if left else (self.J, self.I)
        if np.ndim(x) == 1:
            coef = (x % p)[fixed]
            nz = np.flatnonzero(coef)
            return self.K[nz], free[nz], coef[nz] * self.C[nz] % p
        owner, idx = np.nonzero(x % p)
        e, f = match_pairs(fixed, idx)
        order = np.argsort(owner[f], kind="stable")
        e, f = e[order], f[order]
        return owner[f], self.K[e], free[e], self.C[e] * (x[owner[f], idx[f]] % p) % p


def algebra_radical(A: StructureConstants) -> np.ndarray:
    """Echelon basis (rows) of the Jacobson radical of A.

    Computed as the kernel of the trace form (x, y) -> tr(L_x L_y), which
    equals the radical whenever char(F) > dim(A).  The Gram matrix is one
    product: tr(L_i L_j) is the sum of L_i[a, b] L_j[b, a] over a, b.
    """
    F = A.F
    if F.p <= A.dim:
        raise FieldTooSmallError(
            f"field F_{F.p} too small for trace-form radical of a {A.dim}-dim algebra"
        )
    n = A.dim
    lefts = np.zeros((n, n, n), dtype=np.int64)  # lefts[i] = L_{b_i}
    np.add.at(lefts, (A.I, A.K, A.J), A.C)
    lefts %= F.p
    gram = F.mul(lefts.reshape(n, n * n),
                 lefts.transpose(0, 2, 1).reshape(n, n * n).T)
    return nullspace_basis(F, gram)


# ---------------------------------------------------------------------------
# Minimal polynomials and primary splitting (used by Krull-Schmidt)
# ---------------------------------------------------------------------------

def minimal_polynomial(F: PrimeField, M: np.ndarray) -> list[int]:
    """Coefficients [c_0, ..., c_d] (monic, c_d = 1) of the minimal
    polynomial of the square matrix M over F_p, from one reduced echelon
    form of the columns I, M, ..., M^n: the pivots are 0, ..., d-1, and
    column d holds the coordinates of M^d."""
    n = M.shape[0]
    powers = [F.eye(n)]
    for _ in range(n):
        powers.append(F.mul(powers[-1], M))
    R, piv = rref(F, np.stack([P.reshape(-1) for P in powers], axis=1))
    return [int(-c % F.p) for c in R[:len(piv), len(piv)]] + [1]


def factor_poly(F: PrimeField, coeffs: list[int]):
    """The factors over F_p of the polynomial with coefficients `coeffs`
    (low to high): [(monic irreducible factor, low to high, multiplicity)],
    the constant content dropped, ordered by degree, then multiplicity,
    then the coefficients read from the leading one down.  Cantor and
    Zassenhaus (Math. Comp. 36, 1981): a squarefree decomposition,
    distinct-degree factoring by x^(p^k) mod g, equal-degree splitting.
    A quadratic, the common case, is split in closed form instead."""
    f = _poly_sub(F, coeffs)
    if len(f) < 2:
        return []
    f = poly_divmod(F, f, [f[-1]])[0]
    if len(f) == 3:
        hs = _split_quadratic(F, f)
        out = [(hs[0], 2)] if hs[1:] == hs[:1] else [(h, 1) for h in hs]
    else:
        out = [(h, m) for g, m in _squarefree(F, f)
               for g_k, k in _distinct_degree(F, g)
               for h in _equal_degree(F, g_k, k)]
    return sorted(out, key=lambda hm: (len(hm[0]), hm[1], hm[0][::-1]))


def _split_quadratic(F: PrimeField, g: list[int]) -> list[list[int]]:
    """The monic irreducible factors of the monic quadratic
    g = x^2 + b x + c, a double root listed twice: g itself, or x - r for
    its roots r.  For odd p the roots are (-b +- sqrt D) / 2 when the
    discriminant D = b^2 - 4c is a square (Euler's criterion), the root by
    Tonelli and Shanks; for p = 2 they are read off g(0) and g(1), one
    root being a double one."""
    p, (c, b, _) = F.p, g
    if p == 2:   # x^2 and x^2 + 1 have one root, a double one
        roots = [r for r in (0, 1) if (r + b * r + c) % 2 == 0]
        return [[r, 1] for r in (roots * 2)[:2]] if roots else [g]
    disc = (b * b - 4 * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return [g]
    s, half = _sqrt_mod(disc, p) if disc else 0, (p + 1) // 2
    return [[(b - root) * half % p, 1] for root in (s, -s % p)]


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p
    (Tonelli-Shanks): p - 1 = q 2^s with q odd, z a non-square; the loop
    keeps r^2 = a t, t of order 2^m, and halves the order of t each step."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _squarefree(F: PrimeField, f: list[int]):
    """[(g, m)] with f = prod g^m, each g monic, squarefree and coprime to
    the others, for monic f (Yun's algorithm).  What is left in c has a
    zero derivative, so c(x) = h(x^p) = h(x)^p over F_p."""
    df = _poly_sub(F, [i * c for i, c in enumerate(f)][1:])
    c = poly_gcd_ext(F, f, df)[0]
    w = poly_divmod(F, f, c)[0]
    out, m = [], 1
    while len(w) > 1:
        y = poly_gcd_ext(F, w, c)[0]
        z = poly_divmod(F, w, y)[0]
        if len(z) > 1:
            out.append((z, m))
        w, c, m = y, poly_divmod(F, c, y)[0], m + 1
    if len(c) > 1:
        out += [(g, k * F.p) for g, k in _squarefree(F, c[::F.p])]
    return out


def _distinct_degree(F: PrimeField, g: list[int]):
    """[(g_k, k)]: g_k the product of the degree-k irreducible factors of
    the monic squarefree g, found as gcd(g, x^(p^k) - x)."""
    out, k, h = [], 0, [0, 1]
    while len(g) - 1 >= 2 * (k + 1):
        k += 1
        h = power(_mul_mod(F, g), h, F.p, [1])
        g_k = poly_gcd_ext(F, g, _poly_sub(F, h, [0, 1]))[0]
        if len(g_k) > 1:
            out.append((g_k, k))
            g = poly_divmod(F, g, g_k)[0]
            h = poly_divmod(F, h, g)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(F: PrimeField, g: list[int], k: int, s: int = 0):
    """The monic irreducible factors of g, all of degree k, split off by
    gcd(g, a^((p^k - 1)/2) - 1), or gcd(g, a + a^2 + ... + a^(2^(k-1)))
    when p = 2: on each factor's field F_{p^k}, the quadratic character
    and the trace to F_p.  The a are x, x + 1, ..., x + p - 1, 2x, ...: the
    base-p digits of p + s, p + s + 1, ....  By the Chinese remainder
    theorem one of degree below deg g separates two factors; the pieces
    go on from the next a, since no earlier one separates their factors.
    Two linear factors are split in closed form."""
    if len(g) - 1 == k:
        return [g]
    if k == 1 and len(g) == 3:
        return _split_quadratic(F, g)
    p = F.p
    mul = _mul_mod(F, g)
    while True:
        a, t = [], p + s
        while t:
            a.append(t % p)
            t //= p
        if len(a) >= len(g):
            raise AssertionError("no split of an equal-degree product")
        if p == 2:
            b = t = a
            for _ in range(k - 1):
                b = mul(b, b)
                t = _poly_sub(F, t, b)
        else:
            t = _poly_sub(F, power(mul, a, (p ** k - 1) // 2, [1]), [1])
        d = poly_gcd_ext(F, g, t)[0]
        s += 1
        if 1 < len(d) < len(g):
            return (_equal_degree(F, d, k, s)
                    + _equal_degree(F, poly_divmod(F, g, d)[0], k, s))


def _mul_mod(F: PrimeField, g: list[int]):
    """(a, b) -> a b mod the monic g, reduced as `poly_divmod` leaves it:
    each term x^d, d >= n = deg g, is folded down by x^n = -(g - x^n)."""
    p, n, tail = F.p, len(g) - 1, [-c for c in g[:-1]]

    def mul(a, b):
        out = poly_mul(F, a, b)
        for d in range(len(out) - 1, n - 1, -1):
            c = out[d] % p
            for i, t in enumerate(tail, d - n):
                out[i] += c * t
        out = [c % p for c in out[:n]]
        while len(out) > 1 and not out[-1]:
            out.pop()
        return out
    return mul


def power(mul, x, e: int, one):
    """x^e under the associative product `mul`, by repeated squaring."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def poly_eval_matrix(F: PrimeField, coeffs: list[int], M: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial with coefficients low-to-high at M (Horner)."""
    n = M.shape[0]
    out = F.zeros(n, n)
    for c in reversed(coeffs):
        out = F.add(F.mul(out, M), F.smul(c, F.eye(n)))
    return out


def poly_mul(F: PrimeField, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return [c % F.p for c in out]


def poly_divmod(F: PrimeField, a: list[int], b: list[int]):
    """(q, r) with a = q b + r and deg r < deg b, both reduced with
    trailing zeros dropped; b must be nonzero."""
    p, b, r = F.p, _poly_sub(F, b), _poly_sub(F, a)
    inv, n = F.inv(b[-1]), len(b) - 1
    q = [0] * max(1, len(r) - n)
    for d in range(len(r) - n - 1, -1, -1):
        q[d] = c = r[d + n] * inv % p
        for i, cb in enumerate(b):
            r[i + d] = (r[i + d] - c * cb) % p
    return _poly_sub(F, q), _poly_sub(F, r[:n])


def poly_gcd_ext(F: PrimeField, a: list[int], b: list[int]):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g (monic)."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while any(r1):
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(F, s0, poly_mul(F, q, s1))
        t0, t1 = t1, _poly_sub(F, t0, poly_mul(F, q, t1))
    lead = next((c for c in reversed(r0) if c), 1)
    li = F.inv(lead)
    return ([c * li % F.p for c in r0], [c * li % F.p for c in s0], [c * li % F.p for c in t0])


def _poly_sub(F: PrimeField, a: list[int], b: list[int] = ()) -> list[int]:
    """a - b reduced, with trailing zeros dropped ([0] for zero)."""
    out = [(x - y) % F.p for x, y in zip_longest(a, b, fillvalue=0)] or [0]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out
