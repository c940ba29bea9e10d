import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewcover.field import (PRIME_LIMIT, FieldTooSmallError, PrimeField,
                             StructureConstants, _is_prime,
                             algebra_radical, factor_poly, in_row_space,
                             minimal_polynomial,
                             nullspace_basis, poly_divmod, poly_eval_matrix,
                             poly_mul, rank, solve_linear)

from oracle_dense import check_associativity, check_identity
from oracle_paper import inverse

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
    A = F101.mat(rng.randint(0, 101, (6, 6)))
    while rank(F101, A) < 6:
        A = F101.mat(rng.randint(0, 101, (6, 6)))
    X0 = F101.mat(rng.randint(0, 101, (6, 4)))
    X = solve_linear(F101, A, F101.mul(A, X0))
    assert np.array_equal(X, X0)


def test_solve_exactness_property():
    rng = np.random.RandomState(7)
    for _ in range(20):
        A = F101.mat(rng.randint(0, 101, (4, 6)))
        B = F101.mat(rng.randint(0, 101, (4, 2)))
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
    assert check_associativity(A) and check_identity(A)
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


# -- factoring over F_p -------------------------------------------------------

FACTOR_PRIMES = [2, 3, 5, 1009, 67108859]


@st.composite
def polynomials(draw, primes=FACTOR_PRIMES, max_degree=12):
    """(p, coefficients low to high): a constant times a product of random
    factors with multiplicities (p-th powers included at small p), or raw
    random coefficients."""
    p = draw(st.sampled_from(primes))
    coef = st.integers(0, p - 1)
    if draw(st.booleans()):
        return p, draw(st.lists(coef, min_size=1, max_size=max_degree + 1))
    Fp, out = PrimeField(p), [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(0, 4))):
        fac = draw(st.lists(coef, min_size=1, max_size=3)) + [1]
        mults = [1, 2, 3] + ([p] if p <= 5 else [])
        for _ in range(draw(st.sampled_from(mults))):
            if len(out) + len(fac) - 2 > max_degree:
                break
            out = poly_mul(Fp, out, fac)
    return p, out


def test_factor_poly_matches_sympy():
    """Same monic factors, multiplicities and order as sympy's factor_list."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    @settings(max_examples=300, deadline=None)
    @given(polynomials())
    def check(case):
        p, coeffs = case
        poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
        want = [([int(c) % p for c in reversed(f.all_coeffs())], int(m))
                for f, m in poly.factor_list()[1]]
        assert factor_poly(PrimeField(p), coeffs) == want

    check()


def _monic_polys(p, degree):
    for tail in product(range(p), repeat=degree):
        yield list(tail) + [1]


@settings(max_examples=150, deadline=None)
@given(polynomials(primes=[2, 3, 5, 7], max_degree=7))
def test_factor_poly_brute_force(case):
    """At p <= 7 without sympy: the factors are monic, distinct, irreducible
    (no monic divisor of degree up to half theirs), in the documented order,
    and rebuild the input with its leading coefficient."""
    p, coeffs = case
    Fp = PrimeField(p)
    factors = factor_poly(Fp, coeffs)
    reduced = [c % p for c in coeffs]
    while len(reduced) > 1 and reduced[-1] == 0:
        reduced.pop()
    rebuilt = [reduced[-1]]
    for f, m in factors:
        assert f[-1] == 1 and len(f) >= 2
        for d in range(1, (len(f) - 1) // 2 + 1):
            assert all(any(poly_divmod(Fp, f, g)[1]) for g in _monic_polys(p, d))
        for _ in range(m):
            rebuilt = poly_mul(Fp, rebuilt, f)
    assert len({tuple(f) for f, _ in factors}) == len(factors)
    assert factors == sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    assert rebuilt == reduced


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.sampled_from([2, 5, 1009]), st.data())
def test_minimal_polynomial_is_minimal(n, p, data):
    """mp(M) = 0, and I, M, ..., M^(d-1) are independent (d = deg mp)."""
    Fp = PrimeField(p)
    M = Fp.mat(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                           max_size=n), min_size=n, max_size=n))
               or np.zeros((0, 0)))
    mp = minimal_polynomial(Fp, M)
    assert mp[-1] == 1
    assert not np.any(poly_eval_matrix(Fp, mp, M))
    powers = [Fp.eye(n)]
    for _ in range(len(mp) - 2):
        powers.append(Fp.mul(powers[-1], M))
    if n:
        assert rank(Fp, np.stack([P.reshape(-1) for P in powers])) == len(mp) - 1


P_BIG = 67108859


@settings(max_examples=25, deadline=None)
@given(st.integers(2040, 4200), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_mul_exact_beyond_2048(k, seed, extreme):
    """F.mul against Python integers at the largest admissible prime, for
    inner dimensions around and past the 2048 slice."""
    Fb = PrimeField(P_BIG)
    gen = np.random.default_rng(seed)
    if extreme:
        a = np.full((2, k), P_BIG - 1, dtype=np.int64)
        b = np.full((k, 3), P_BIG - 1, dtype=np.int64)
    else:
        a = gen.integers(0, P_BIG, (2, k))
        b = gen.integers(0, P_BIG, (k, 3))
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % P_BIG
             for col in b.T] for row in a]
    assert Fb.mul(a, b).tolist() == want
    assert Fb.mul(a[0], b).tolist() == want[0]


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 2100), (2, 2100, 4)),      # a stack on the right
    ((2, 3, 2100), (2100, 4)),      # a stack on the left
    ((2, 3, 2100), (2, 2100, 4)),   # stacks on both sides
    ((2100,), (2, 2100, 4)),        # a vector against a stack
])
def test_mul_stacks_beyond_2048(a_shape, b_shape):
    """Stacked products slice the contracted axis, never the batch axis,
    at the largest admissible prime; against an object-dtype product."""
    Fb = PrimeField(P_BIG)
    gen = np.random.default_rng(7)
    a = gen.integers(0, P_BIG, a_shape)
    b = gen.integers(0, P_BIG, b_shape)
    want = np.matmul(a.astype(object), b.astype(object)) % P_BIG
    got = Fb.mul(a, b)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.tolist() == want.tolist()


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
