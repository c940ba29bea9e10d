"""Exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  All pivoting
is deterministic (first nonzero entry scanning rows top to bottom), so every
basis produced here is reproducible across runs.  Primes are kept below
2^26, so a product of two entries times an inner dimension up to 2048 stays
below 2^63.

Also provides the algebra-level primitives consumed by the module-category
code: sparse tensors over F_p, structure-constant algebras stored by their
nonzero constants, Jacobson radical via the trace form (valid since
char > dim), and idempotent lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
import sympy


# Largest admissible prime, exclusive: p^2 * 2048 < 2^63 keeps every matrix
# product with inner dimension up to 2048 exact in int64.
PRIME_LIMIT = 2 ** 26


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
    exceed the dimension cap, and satisfy p = 1 (mod exp G) so that all
    characters of the acting group take values in F_p.  `for_group` picks
    the default.
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
    def for_group(exponent: int = 1, dim_cap: int = 500, start: int = 1009) -> "PrimeField":
        """Smallest prime >= start with p = 1 (mod exponent) and p > dim_cap."""
        p = max(start, dim_cap + 1)
        while not (_is_prime(p) and (p - 1) % exponent == 0):
            p += 1
        return PrimeField(p)

    # -- scalar arithmetic ------------------------------------------------

    def red(self, a) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) % self.p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def half(self) -> int:
        return self.inv(2)

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
        """Matrix product reduced mod p.  Exact while the inner dimension is
        at most 2048, since p < 2^26 gives p**2 * 2048 < 2**63."""
        return (a @ b) % self.p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    def smul(self, c: int, a: np.ndarray) -> np.ndarray:
        return (int(c) % self.p * a) % self.p


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

def rref(F: PrimeField, A: np.ndarray):
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


def rank(F: PrimeField, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(rref(F, A)[1])


def row_space(F: PrimeField, A: np.ndarray) -> np.ndarray:
    """Echelon basis of the row space (rows of the result)."""
    if A.shape[0] == 0:
        return A.copy()
    R, piv = rref(F, A)
    return R[: len(piv)]


def solve_linear(F: PrimeField, A: np.ndarray, B: np.ndarray):
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
    R, piv = rref(F, A)
    free = [c for c in range(cols) if c not in piv]
    basis = F.zeros(len(free), cols)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, c in enumerate(piv):
            basis[i, c] = (-R[r, fc]) % F.p
    return basis


def inverse(F: PrimeField, A: np.ndarray):
    """Inverse of a square matrix, or None if singular."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("not square")
    X = solve_linear(F, A, F.eye(n))
    if X is None or rank(F, A) < n:
        return None
    return X


def is_invertible(F: PrimeField, A: np.ndarray) -> bool:
    return A.shape[0] == A.shape[1] and rank(F, A) == A.shape[0]


def in_row_space(F: PrimeField, basis: np.ndarray, v: np.ndarray) -> bool:
    """Membership of vector v in the row space of `basis`."""
    if basis.shape[0] == 0:
        return not np.any(v % F.p)
    return solve_linear(F, basis.T % F.p, (v % F.p).reshape(-1, 1)) is not None


def intersect_row_spaces(F: PrimeField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Echelon basis of rowspace(A) & rowspace(B)."""
    if A.shape[0] == 0 or B.shape[0] == 0:
        return F.zeros(0, A.shape[1])
    # x in both spans: x = u A = v B; kernel of [A^T | -B^T]
    M = np.concatenate([A.T % F.p, (-B.T) % F.p], axis=1)
    ker = nullspace_basis(F, M)
    if ker.shape[0] == 0:
        return F.zeros(0, A.shape[1])
    combos = F.mul(ker[:, : A.shape[0]], A)
    return row_space(F, combos)


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

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y acting on coordinate columns."""
        return self._mult_matrix(x, self.I, self.J)

    def _mult_matrix(self, x, fixed, free) -> np.ndarray:
        """M[k, free] = sum of x[fixed] * C over the entries at k."""
        p, n = self.F.p, self.dim
        M = np.zeros(n * n, dtype=np.int64)
        np.add.at(M, self.K * n + free, (x % p)[fixed] * self.C % p)
        return (M % p).reshape(n, n)

    def check_associativity(self) -> bool:
        """(b_i b_j) b_k == b_i (b_j b_k) for all i, j, k, compared as
        sparse tensors over (i, j, k, m)."""
        F, n = self.F, self.dim
        I, J, K, C = self.I, self.J, self.K, self.C
        # (b_i b_j) b_k: entry e gives b_i b_j at l, entry f gives b_l b_k
        e, f = match_pairs(K, I)
        left = coalesce(F, ((I[e] * n + J[e]) * n + J[f]) * n + K[f],
                        C[e] * C[f])
        # b_i (b_j b_k): entry e gives b_j b_k at l, entry f gives b_i b_l
        e, f = match_pairs(K, J)
        right = coalesce(F, ((I[f] * n + I[e]) * n + J[e]) * n + K[f],
                         C[e] * C[f])
        return all(np.array_equal(a, b) for a, b in zip(left, right))

    def check_identity(self) -> bool:
        eye = self.F.eye(self.dim)
        return (np.array_equal(self._mult_matrix(self.one, self.I, self.J), eye)
                and np.array_equal(self._mult_matrix(self.one, self.J, self.I), eye))


def _unit(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


def algebra_radical(A: StructureConstants) -> np.ndarray:
    """Echelon basis (rows) of the Jacobson radical of A.

    Computed as the kernel of the trace form (x, y) -> tr(L_x L_y), which
    equals the radical whenever char(F) > dim(A).
    """
    F = A.F
    if F.p <= A.dim:
        raise FieldTooSmallError(
            f"field F_{F.p} too small for trace-form radical of a {A.dim}-dim algebra"
        )
    n = A.dim
    lefts = [A.left_mult_matrix(_unit(n, i)) for i in range(n)]
    gram = F.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            t = int(np.trace(F.mul(lefts[i], lefts[j])) % F.p)
            gram[i, j] = t
            gram[j, i] = t
    return nullspace_basis(F, gram)


def lift_idempotent(A: StructureConstants, ebar: np.ndarray, max_iter: int = 64) -> np.ndarray:
    """Lift an idempotent of A/rad(A) to an exact idempotent of A.

    `ebar` is any representative whose square is congruent to it modulo the
    radical.  Newton iteration e <- 3e^2 - 2e^3 terminates because the
    defect e^2 - e lives in the nilpotent radical.
    """
    F = A.F
    rad = algebra_radical(A)
    e = ebar.copy() % F.p
    defect = F.sub(A.multiply(e, e), e)
    if np.any(defect) and not in_row_space(F, rad, defect):
        raise ValueError("input is not idempotent modulo the radical")
    for _ in range(max_iter):
        e2 = A.multiply(e, e)
        if np.array_equal(e2, e):
            residual = F.sub(e, ebar)
            if np.any(residual) and not in_row_space(F, rad, residual):
                raise AssertionError("lift drifted off its residue class")
            return e
        e3 = A.multiply(e2, e)
        e = F.sub(F.smul(3, e2), F.smul(2, e3))
    raise ArithmeticError("idempotent lifting did not converge")


# ---------------------------------------------------------------------------
# Minimal polynomials and primary splitting (used by Krull-Schmidt)
# ---------------------------------------------------------------------------

def minimal_polynomial(F: PrimeField, M: np.ndarray) -> list[int]:
    """Coefficients [c_0, ..., c_d] (monic, c_d = 1) of the minimal
    polynomial of the square matrix M over F_p."""
    n = M.shape[0]
    if n == 0:
        return [1]
    powers = [F.eye(n).reshape(-1)]
    cur = F.eye(n)
    for _ in range(n):
        cur = F.mul(cur, M)
        powers.append(cur.reshape(-1))
    for d in range(1, n + 1):
        A = np.stack(powers[:d], axis=1)  # columns I, M, ..., M^{d-1}
        b = powers[d]
        sol = solve_linear(F, A, b.reshape(-1, 1))
        if sol is not None:
            return [int((-sol[i, 0]) % F.p) for i in range(d)] + [1]
    raise AssertionError("minimal polynomial must exist by Cayley-Hamilton")


def factor_poly(F: PrimeField, coeffs: list[int]):
    """Primary factorization over F_p via sympy.

    Returns a list of (factor coefficients low-to-high, multiplicity).
    """
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=F.p)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = [int(c) % F.p for c in reversed(fac.all_coeffs())]
        out.append((cs, int(mult)))
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
            out[i + j] = (out[i + j] + ca * cb) % F.p
    return out


def poly_divmod(F: PrimeField, a: list[int], b: list[int]):
    a = [c % F.p for c in a]
    b = [c % F.p for c in b]
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    inv_lead = F.inv(b[-1])
    q = [0] * max(1, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        c = r[-1] * inv_lead % F.p
        d = len(r) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            r[i + d] = (r[i + d] - c * cb) % F.p
        while r and r[-1] == 0:
            r.pop()
    if not r:
        r = [0]
    return q, r


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


def _poly_sub(F: PrimeField, a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % F.p for i in range(n)]
