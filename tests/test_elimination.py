"""The elimination kernel of `skewcover.field` against the dense oracle.

RREF is unique, so the list path (small matrices), the sparse-row path,
the array path and its whole-matrix update must all return exactly what
the dense Gauss-Jordan oracle returns, on every shape, density and prime,
whether the matrix comes as an array or as sparse rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_dense as oracle
import oracle_paper
from skewcover import field
from skewcover.field import PrimeField

# 67108859 is the largest prime below 2^26, the field-size limit.
PRIMES = (2, 3, 1009, 67108859)
FIELDS = {p: PrimeField(p) for p in PRIMES}


def _matrix(p, rows, cols, density, low_rank, seed):
    """A reproducible matrix of the given shape: entries nonzero with
    probability `density`, or a product through an inner dimension below
    min(rows, cols) for a rank-deficient one.  Entries are left unreduced
    and some negative, as callers pass them."""
    rng = np.random.default_rng(seed)

    def sparse(r, c):
        mask = rng.random((r, c)) < density
        return rng.integers(-p, 2 * p, size=(r, c)) * mask

    if low_rank and min(rows, cols) > 1:
        k = int(rng.integers(1, min(rows, cols)))
        A = sparse(rows, k) % p @ (sparse(k, cols) % p)
    else:
        A = sparse(rows, cols)
    A = A.astype(np.int64)
    A.flags.writeable = False  # as ModuleTable entries are; a write raises
    return A


def _reduced(F, X):
    assert X.dtype == np.int64
    assert X.size == 0 or (X.min() >= 0 and X.max() < F.p)
    return X


def _same(F, got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and got.shape == want.shape
        assert np.array_equal(_reduced(F, got), want)


def _dict_rows(F, A):
    return [{c: v for c, v in enumerate(row) if v} for row in (A % F.p).tolist()]


def check_kernel(F, A, seed):
    rows, cols = A.shape
    before = A.copy()
    R0, piv0 = oracle.rref(F, A)
    R, piv = field.rref(F, A)
    assert piv == piv0
    assert R.shape == A.shape
    assert np.array_equal(_reduced(F, R), R0)
    assert field.rank(F, A) == len(piv0)
    if rows:
        assert np.array_equal(_reduced(F, field.row_space(F, A)), R0[: len(piv0)])
    _same(F, field.nullspace_basis(F, A), oracle.nullspace_basis(F, A))
    _same(F, field.sparse_nullspace_basis(F, _dict_rows(F, A), cols),
          oracle.nullspace_basis(F, A))
    _same(F, field.quotient_map(F, R0[: len(piv0)], cols),
          oracle.quotient_by_completion(F, R0[: len(piv0)], cols))

    rng = np.random.default_rng(seed + 1)
    X0 = rng.integers(0, F.p, size=(cols, 2))
    reachable = (A % F.p) @ X0 % F.p if cols else np.zeros((rows, 2), np.int64)
    for B in (reachable, rng.integers(0, F.p, size=(rows, 2)), reachable[:, 0]):
        B = B.astype(np.int64)
        _same(F, field.solve_linear(F, A, B), oracle.solve_linear(F, A, B))

    if rows == cols:
        _same(F, oracle_paper.inverse(F, A), oracle.inverse(F, A))
    if rows:
        v = (rng.integers(0, 2, size=rows) @ (A % F.p)).astype(np.int64)
        for w in (v, rng.integers(0, F.p, size=cols).astype(np.int64)):
            assert field.in_row_space(F, A, w) == oracle.in_row_space(F, A, w)
    assert np.array_equal(A, before)


# Sizes straddle the list path's 64 cells (8x8 against 8x9, 1x64 against
# 1x65); densities straddle the sparse-row cut of 0.35 * cols * min(rows,
# cols) nonzeros (CUT_SIDES) and the half of the rows at which an array
# pivot updates the whole matrix instead of the rows it hits.
SIZES = st.one_of(st.integers(0, 12), st.integers(0, 100))


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(PRIMES), rows=SIZES, cols=SIZES,
       density=st.floats(0, 1),
       low_rank=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(p=1009, rows=0, cols=0, density=1.0, low_rank=False, seed=0)
@example(p=1009, rows=0, cols=5, density=1.0, low_rank=False, seed=0)
@example(p=1009, rows=5, cols=0, density=1.0, low_rank=False, seed=0)
@example(p=2, rows=1, cols=1, density=1.0, low_rank=False, seed=1)
@example(p=3, rows=8, cols=8, density=0.6, low_rank=True, seed=2)
@example(p=3, rows=8, cols=9, density=0.6, low_rank=True, seed=2)
@example(p=1009, rows=1, cols=64, density=0.5, low_rank=False, seed=3)
@example(p=1009, rows=1, cols=65, density=0.5, low_rank=False, seed=3)
@example(p=1009, rows=65, cols=1, density=0.5, low_rank=False, seed=3)
@example(p=67108859, rows=48, cols=48, density=1.0, low_rank=False, seed=4)
@example(p=67108859, rows=48, cols=48, density=0.45, low_rank=True, seed=5)
@example(p=1009, rows=200, cols=200, density=0.03, low_rank=False, seed=6)
@example(p=2, rows=120, cols=120, density=1.0, low_rank=True, seed=7)
@example(p=2, rows=30, cols=30, density=0.5, low_rank=False, seed=8)
@example(p=2, rows=30, cols=30, density=0.95, low_rank=False, seed=8)
@example(p=2, rows=90, cols=10, density=0.04, low_rank=False, seed=9)
@example(p=2, rows=90, cols=10, density=0.16, low_rank=False, seed=9)
@example(p=67108859, rows=30, cols=30, density=0.25, low_rank=False, seed=8)
@example(p=67108859, rows=30, cols=30, density=0.45, low_rank=False, seed=8)
@example(p=67108859, rows=90, cols=10, density=0.02, low_rank=False, seed=9)
@example(p=67108859, rows=90, cols=10, density=0.08, low_rank=False, seed=9)
@example(p=1009, rows=70, cols=70, density=0.0, low_rank=False, seed=10)
def test_kernel_matches_dense_oracle(p, rows, cols, density, low_rank, seed):
    F = FIELDS[p]
    check_kernel(F, _matrix(p, rows, cols, density, low_rank, seed), seed)


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_inverse_of_identity_and_empty(n):
    F = FIELDS[1009]
    Inv = oracle_paper.inverse(F, F.eye(n))
    assert Inv.shape == (n, n) and np.array_equal(_reduced(F, Inv), F.eye(n))


# The examples above on each side of the sparse-row cut, with the path
# each must take.  For p = 2 half the drawn entries vanish mod p.
CUT_SIDES = [
    ((2, 30, 30, 0.5, 8), "sparse"), ((2, 30, 30, 0.95, 8), "array"),
    ((2, 90, 10, 0.04, 9), "sparse"), ((2, 90, 10, 0.16, 9), "array"),
    ((67108859, 30, 30, 0.25, 8), "sparse"),
    ((67108859, 30, 30, 0.45, 8), "array"),
    ((67108859, 90, 10, 0.02, 9), "sparse"),
    ((67108859, 90, 10, 0.08, 9), "array"),
]


@pytest.mark.parametrize("case, path", CUT_SIDES)
def test_examples_straddle_the_sparse_cut(case, path, monkeypatch):
    p, rows, cols, density, seed = case
    F = FIELDS[p]
    A = _matrix(p, rows, cols, density, False, seed)
    taken = []
    for name in ("sparse", "array"):
        kernel = getattr(field, f"_eliminate_{name}")
        monkeypatch.setattr(field, f"_eliminate_{name}",
                            lambda *a, name=name, kernel=kernel:
                            taken.append(name) or kernel(*a))
    field.rank(F, A)
    field.sparse_nullspace_basis(F, _dict_rows(F, A), cols)
    assert taken == [path, path]
