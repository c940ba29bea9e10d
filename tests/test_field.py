import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewcover.field import (PRIME_LIMIT, FieldTooSmallError, PrimeField,
                             StructureConstants, _is_prime,
                             algebra_radical, factor_poly, in_row_space,
                             inverse, lift_idempotent, minimal_polynomial,
                             nullspace_basis, poly_eval_matrix, rank, rref,
                             solve_linear)

F101 = PrimeField(101)
F = PrimeField(1009)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(100)
    assert PrimeField.for_group(exponent=2).p == 1009
    assert PrimeField.for_group(exponent=3).p == 1009
    # 1013 is prime but 1013 - 1 = 2^2 * 11 * 23: not 1 mod 7; 1009-1 = 1008 = 7*144
    assert PrimeField.for_group(exponent=7).p == 1009
    assert PrimeField.for_group(exponent=5).p % 5 == 1


def test_solve_identity():
    X = solve_linear(F101, F101.eye(2), F101.eye(2))
    assert np.array_equal(X, F101.eye(2))


def test_solve_inconsistent():
    A = F101.mat([[1, 1], [0, 0]])
    B = F101.mat([[2], [1]])
    assert solve_linear(PrimeField(5), A, B) is None


def test_solve_recovers_random_solution():
    rng = np.random.RandomState(42)
    A = F101.red(rng.randint(0, 101, (6, 6)))
    while rank(F101, A) < 6:
        A = F101.red(rng.randint(0, 101, (6, 6)))
    X0 = F101.red(rng.randint(0, 101, (6, 4)))
    X = solve_linear(F101, A, F101.mul(A, X0))
    assert np.array_equal(X, X0)


def test_solve_exactness_property():
    rng = np.random.RandomState(7)
    for _ in range(20):
        A = F101.red(rng.randint(0, 101, (4, 6)))
        B = F101.red(rng.randint(0, 101, (4, 2)))
        X = solve_linear(F101, A, B)
        if X is not None:
            assert np.array_equal(F101.mul(A, X), B)


def test_nullspace_identity_and_zero():
    assert nullspace_basis(F101, F101.eye(3)).shape[0] == 0
    Z = nullspace_basis(F101, F101.zeros(2, 3))
    assert Z.shape == (3, 3)


def test_nullspace_row():
    F7 = PrimeField(7)
    A = F7.mat([[1, 2, 3]])
    N = nullspace_basis(F7, A)
    assert N.shape[0] == 2
    assert not np.any(F7.mul(A, N.T))


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_nullspace_dimension_formula(m, n, data):
    entries = data.draw(st.lists(st.integers(0, 100),
                                 min_size=m * n, max_size=m * n))
    A = F101.mat(np.array(entries).reshape(m, n))
    N = nullspace_basis(F101, A)
    assert N.shape[0] == n - rank(F101, A)
    if N.shape[0]:
        assert not np.any(F101.mul(A, N.T))


def _algebra_product_field(p):
    # F_p x F_p with componentwise multiplication
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0] = [1, 0]
    t[1, 1] = [0, 1]
    return StructureConstants(PrimeField(p), t, np.array([1, 1]))


def test_radical_semisimple_zero():
    A = _algebra_product_field(1009)
    assert algebra_radical(A).shape[0] == 0


def test_radical_dual_numbers():
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0] = [1, 0]
    t[0, 1] = [0, 1]
    t[1, 0] = [0, 1]
    A = StructureConstants(F, t, np.array([1, 0]))
    radb = algebra_radical(A)
    assert radb.shape[0] == 1 and list(radb[0]) == [0, 1]


def test_radical_is_nilpotent_ideal():
    # upper triangular 2x2: basis E11, E12, E22
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0, 0] = [1, 0, 0]
    t[0, 1] = [0, 1, 0]
    t[1, 2] = [0, 1, 0]
    t[2, 2] = [0, 0, 1]
    A = StructureConstants(F, t, np.array([1, 0, 1]))
    assert A.check_associativity() and A.check_identity()
    radb = algebra_radical(A)
    assert radb.shape[0] == 1
    # ideal: left and right multiples of the radical stay in it
    for i in range(3):
        b = np.zeros(3, dtype=np.int64)
        b[i] = 1
        for r in range(radb.shape[0]):
            assert in_row_space(F, radb, A.multiply(b, radb[r]))
            assert in_row_space(F, radb, A.multiply(radb[r], b))
    # nilpotency within dim steps
    x = radb[0]
    power = x.copy()
    for _ in range(A.dim):
        power = A.multiply(power, x)
    assert not np.any(power)


def test_radical_needs_large_field():
    A = _algebra_product_field(2)
    with pytest.raises(FieldTooSmallError):
        algebra_radical(A)


def test_lift_idempotent_trivial():
    A = _algebra_product_field(1009)
    assert np.array_equal(lift_idempotent(A, np.array([0, 0])), [0, 0])
    assert np.array_equal(lift_idempotent(A, np.array([1, 1])), [1, 1])


def test_lift_idempotent_triangular():
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0, 0] = [1, 0, 0]
    t[0, 1] = [0, 1, 0]
    t[1, 2] = [0, 1, 0]
    t[2, 2] = [0, 0, 1]
    A = StructureConstants(F, t, np.array([1, 0, 1]))
    e = lift_idempotent(A, np.array([1, 5, 0]))
    assert np.array_equal(A.multiply(e, e), e)
    assert e[0] == 1 and e[2] == 0  # projects to the diag class (1, 0)


def test_lift_rejects_non_idempotent():
    A = _algebra_product_field(1009)
    with pytest.raises(ValueError):
        lift_idempotent(A, np.array([2, 0]))


def test_minimal_polynomial_nilpotent():
    M = F101.mat([[0, 1], [0, 0]])
    assert minimal_polynomial(F101, M) == [0, 0, 1]


def test_minpoly_factor_and_split():
    M = F.mat([[1, 0], [0, 2]])
    mp = minimal_polynomial(F, M)
    factors = factor_poly(F, mp)
    assert len(factors) == 2
    # evaluating (x - 2)/(1 - 2) at M yields the projector onto the 1-eigenspace
    proj = poly_eval_matrix(F, [(2 * F.inv(1)) % F.p * 0 + (-2) % F.p * F.inv((1 - 2) % F.p) % F.p,
                                F.inv((1 - 2) % F.p)], M)
    assert np.array_equal(F.mul(proj, proj), proj)


def test_inverse():
    A = F101.mat([[1, 2], [3, 4]])
    Ai = inverse(F101, A)
    assert np.array_equal(F101.mul(A, Ai), F101.eye(2))
    assert inverse(F101, F101.mat([[1, 2], [2, 4]])) is None


def _brute_force_root(p, n):
    for r in range(1, p):
        if pow(r, n, p) == 1 and all(pow(r, m, p) != 1 for m in range(1, n)):
            return r
    return None


def test_primitive_root_matches_brute_force():
    for p in [q for q in range(2, 200) if all(q % d for d in range(2, q))]:
        Fp = PrimeField(p)
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert Fp.primitive_root_of_unity(n) == _brute_force_root(p, n), (p, n)
            else:
                with pytest.raises(ValueError):
                    Fp.primitive_root_of_unity(n)


def test_primitive_root_near_the_prime_limit():
    # the largest admissible prime, and one with many small divisors of p - 1
    p = next(q for q in range(PRIME_LIMIT - 1, 0, -2) if _is_prime(q))
    q6 = next(q for q in range(PRIME_LIMIT - 1, 0, -2)
              if _is_prime(q) and (q - 1) % 2520 == 0)
    t0 = time.perf_counter()
    for prime in (p, q6):
        Fp = PrimeField(prime)
        for n in [d for d in range(1, 2521) if (prime - 1) % d == 0]:
            r = Fp.primitive_root_of_unity(n)
            assert pow(r, n, prime) == 1
            assert all(pow(r, n // d, prime) != 1 for d in range(2, n + 1)
                       if n % d == 0 and _is_prime(d))
    assert time.perf_counter() - t0 < 5.0


def test_field_size_limit():
    assert PRIME_LIMIT == 2 ** 26
    largest = next(q for q in range(PRIME_LIMIT - 1, 0, -2) if _is_prime(q))
    assert PrimeField(largest).p == largest
    for big in (67108879, 4294967311, 2 ** 61 - 1):  # primes above the limit
        with pytest.raises(ValueError, match=r"2\^26"):
            PrimeField(big)
    with pytest.raises(ValueError, match=r"2\^26"):
        PrimeField(PRIME_LIMIT)
