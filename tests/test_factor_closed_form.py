"""`field.factor_poly` splits quadratics in closed form; its output must
equal that of the Cantor-Zassenhaus factoring kept in `oracle_factor`, on
the minimal polynomials knitting meets and on random products."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracle_factor import factor_poly as oracle_factor_poly
from skewcover.field import PrimeField, _split_quadratic, factor_poly, poly_mul

PRIMES = (2, 3, 5, 7, 13, 1009, 67108859)


def test_knit_polynomials_match_oracle(recorded_knits):
    polys = [fp for knit in recorded_knits.values() for fp in knit.polynomials]
    assert sum(len(c) == 3 for _, c in polys) > 50   # quadratics dominate
    for F, coeffs in polys:
        assert factor_poly(F, coeffs) == oracle_factor_poly(F, coeffs), coeffs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_every_monic_quadratic_matches_oracle(p):
    F = PrimeField(p)
    for c, b in product(range(p), repeat=2):
        assert factor_poly(F, [c, b, 1]) == oracle_factor_poly(F, [c, b, 1])


def test_split_quadratic_roots():
    F = PrimeField(1009)
    # (x - 3)(x - 5) and the double root of (x - 7)^2
    assert sorted(_split_quadratic(F, [15, 1009 - 8, 1])) == [[1004, 1], [1006, 1]]
    assert _split_quadratic(F, [49, 1009 - 14, 1]) == [[1002, 1]] * 2
    assert _split_quadratic(F, [1009 - 11, 0, 1]) == [[1009 - 11, 0, 1]]


@st.composite
def products(draw):
    p = draw(st.sampled_from(PRIMES))
    F = PrimeField(p)
    coeff = st.integers(0, p - 1)
    f = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 4))):
        g = [*draw(st.lists(coeff, min_size=1, max_size=3)), 1]
        for _ in range(draw(st.integers(1, 2))):
            f = poly_mul(F, f, g)
    return F, f


@settings(max_examples=300, deadline=None)
@given(products())
def test_random_products_match_oracle(case):
    F, f = case
    assert factor_poly(F, f) == oracle_factor_poly(F, f)
