"""The Krull-Schmidt splitter the package used before its one-pass split:
an eager scan of End basis elements, then all pairwise sums and products,
cutting off one primary component at a time with a CRT idempotent and
recursing on both halves.  Kept as an oracle for the summand multiset of
`rep.decompose`; it factors with the package's `factor_poly`.
"""

import numpy as np

from skewcover.field import (factor_poly, minimal_polynomial, poly_eval_matrix,
                             poly_gcd_ext, poly_mul)
from skewcover.rep import (NonSplitEndError, RepMorphism, Summand,
                           _image_subrep, _matrix_to_morphism, _total_matrix,
                           end_algebra, end_radical, identity_morphism)


def _find_splitting_idempotent(M):
    """A nontrivial exact idempotent endomorphism of M, or None if End(M)
    is local.  Deterministic: scans End basis elements, then pairwise sums
    and products, by primary decomposition of minimal polynomials."""
    F = M.F
    E, H = end_algebra(M)
    radb = end_radical(M)
    if E.dim - radb.shape[0] == 1:
        return None

    def idempotent_from(fmat: np.ndarray):
        mp = minimal_polynomial(F, fmat)
        factors = factor_poly(F, mp)
        if len(factors) < 2:
            return None
        # CRT idempotent cutting out the first primary component
        f1 = factors[0][0]
        q1 = f1
        for _ in range(factors[0][1] - 1):
            q1 = poly_mul(F, q1, f1)
        rest = [1]
        for fac, mult in factors[1:]:
            for _ in range(mult):
                rest = poly_mul(F, rest, fac)
        g, u, v = poly_gcd_ext(F, q1, rest)
        if len(g) != 1:
            return None
        # e = u*q1 evaluated at f kills the first component, is 1 on the rest
        e = poly_eval_matrix(F, poly_mul(F, u, q1), fmat)
        if not np.any(e) or np.array_equal(e, F.eye(e.shape[0])):
            return None
        if not np.array_equal(F.mul(e, e), e):
            return None
        return e

    mats = [_total_matrix(f) for f in H.basis]
    candidates = list(mats)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            candidates.append(F.add(mats[i], mats[j]))
            candidates.append(F.mul(mats[i], mats[j]))
    for c in candidates:
        e = idempotent_from(c)
        if e is not None:
            return _matrix_to_morphism(M, e)

    # quotient is commutative with no split: a genuine field extension
    quot_dim = E.dim - radb.shape[0]
    raise NonSplitEndError(
        f"End(M)/rad has dimension {quot_dim} with no splitting idempotent "
        f"found; non-split endomorphism ring over F_{F.p}")


def split_by_idempotent(M, e: RepMorphism):
    """M = im(e) + im(1-e) with inclusion/projection witnesses."""
    one = identity_morphism(M)
    comp = RepMorphism(M, M, [M.F.sub(a, b) for a, b in zip(one.blocks, e.blocks)])
    s1, i1, p1 = _image_subrep(e)
    s2, i2, p2 = _image_subrep(comp)
    return Summand(s1, i1, p1), Summand(s2, i2, p2)


def oracle_krull_schmidt(M) -> list[Summand]:
    """The summands of M in canonical order (dim vector, then Loewy
    label); M itself when it is indecomposable."""
    work = [Summand(M, identity_morphism(M), identity_morphism(M))]
    out: list[Summand] = []
    while work:
        cur = work.pop()
        e = _find_splitting_idempotent(cur.rep)
        if e is None:
            out.append(cur)
            continue
        for piece in split_by_idempotent(cur.rep, e):
            inc = cur.inclusion.compose(piece.inclusion)
            prj = piece.projection.compose(cur.projection)
            work.append(Summand(piece.rep, inc, prj))
    out.sort(key=lambda s: (s.rep.dims, s.rep.label()))
    return out
