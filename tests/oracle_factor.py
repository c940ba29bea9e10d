"""The polynomial factoring the package used before quadratics were split
in closed form: Cantor-Zassenhaus on every squarefree part, degree 2
included.  Kept verbatim as an oracle for `field.factor_poly`; the helpers
it shares with the package are unchanged there."""

from skewcover.field import (PrimeField, _distinct_degree, _mul_mod,
                             _poly_sub, _squarefree, poly_divmod,
                             poly_gcd_ext, power)


def factor_poly(F: PrimeField, coeffs: list[int]):
    """The factors over F_p of the polynomial with coefficients `coeffs`
    (low to high): [(monic irreducible factor, low to high, multiplicity)],
    the constant content dropped, ordered by degree, then multiplicity,
    then the coefficients read from the leading one down.  Cantor and
    Zassenhaus (Math. Comp. 36, 1981): a squarefree decomposition,
    distinct-degree factoring by x^(p^k) mod g, equal-degree splitting."""
    f = _poly_sub(F, coeffs)
    if len(f) < 2:
        return []
    f = poly_divmod(F, f, [f[-1]])[0]
    out = [(h, m) for g, m in _squarefree(F, f)
           for g_k, k in _distinct_degree(F, g)
           for h in _equal_degree(F, g_k, k)]
    return sorted(out, key=lambda hm: (len(hm[0]), hm[1], hm[0][::-1]))


def _equal_degree(F: PrimeField, g: list[int], k: int, s: int = 0):
    """The monic irreducible factors of g, all of degree k, split off by
    gcd(g, a^((p^k - 1)/2) - 1), or gcd(g, a + a^2 + ... + a^(2^(k-1)))
    when p = 2: on each factor's field F_{p^k}, the quadratic character
    and the trace to F_p.  The a are x, x + 1, ..., x + p - 1, 2x, ...: the
    base-p digits of p + s, p + s + 1, ....  By the Chinese remainder
    theorem one of degree below deg g separates two factors; the pieces
    go on from the next a, since no earlier one separates their factors."""
    if len(g) - 1 == k:
        return [g]
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
