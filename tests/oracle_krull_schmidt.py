"""Two Krull-Schmidt splitters the package used before, kept as oracles
for `rep.decompose`.

`oracle_krull_schmidt` predates the one-pass split: an eager scan of End
basis elements, then all pairwise sums and products, cutting off one
primary component at a time with a CRT idempotent and recursing on both
halves.  It fixes the summand multiset; it factors with the package's
`factor_poly`.

`certify_first_krull_schmidt` is the one-pass split as it was before it
tried a splitting candidate ahead of certifying the module
indecomposable: it builds End's structure constants and radical for every
module first.  It fixes the summands themselves (maps, witnesses, order);
it factors with the Cantor-Zassenhaus oracle of `oracle_factor`.

`_total_matrix` is the loop `rep` built a morphism's block-diagonal total
matrix with before it placed morphism vectors through one layout; only
these oracles and their tests used it, and it is kept verbatim.
"""

import numpy as np

import oracle_factor
from skewcover.field import (factor_poly, minimal_polynomial, poly_divmod,
                             poly_eval_matrix, poly_gcd_ext, poly_mul, power)
from skewcover.rep import (NonSplitEndError, RepMorphism, Summand,
                           _frobenius_fixed, _frozen, _image_subrep,
                           _matrix_to_morphism, end_algebra,
                           end_radical, identity_morphism, is_indecomposable)


def _total_matrix(f: RepMorphism) -> np.ndarray:
    """Block-diagonal total matrix of a morphism M -> M."""
    F = f.source.F
    n = f.source.total_dim
    out = F.zeros(n, n)
    off = 0
    for v, d in enumerate(f.source.dims):
        out[off: off + d, off: off + d] = f.blocks[v]
        off += d
    return out


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


def _splitting_element(M):
    """(f, minimal polynomial of f, its factors) for an endomorphism f of M,
    as a total matrix, whose minimal polynomial has two or more distinct
    irreducible factors; M must have dim End(M)/rad > 1.  Drawn lazily in
    a fixed order over the End basis b: sum (k+1) b_k, each b_k, b_i + b_j
    and b_i b_j for i < j, and last the lift from `_frobenius_fixed`."""
    F = M.F
    _, H = end_algebra(M)
    mats = np.stack([_total_matrix(f) for f in H.basis])
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
        factors = oracle_factor.factor_poly(F, mp)
        if len(factors) > 1:
            return f, mp, factors
    raise AssertionError("a non-scalar Frobenius-fixed element did not split")


def certify_first_krull_schmidt(M):
    """The summands of M as (dims, maps, inclusion blocks, projection
    blocks), or None when M is indecomposable.  A piece on the stack is cut
    by one splitting element f into all of its primary components
    ker q(f)^m, the images of the CRT idempotents of the primary factors
    q^m of the minimal polynomial; only pieces with dim End/rad > 1 go
    back on the stack."""
    if is_indecomposable(M):
        return None
    F = M.F
    work = [Summand(M, identity_morphism(M), identity_morphism(M))]
    out: list[Summand] = []
    while work:
        cur = work.pop()
        f, mp, factors = _splitting_element(cur.rep)
        for q, m in factors:
            qm = power(lambda a, b: poly_mul(F, a, b), q, m, [1])
            rest = poly_divmod(F, mp, qm)[0]
            # u rest = 1 mod q^m: the idempotent is 1 on ker q(f)^m, 0 on the rest
            u = poly_gcd_ext(F, rest, qm)[1]
            e = poly_eval_matrix(F, poly_divmod(F, poly_mul(F, u, rest), mp)[1], f)
            sub, incl, proj = _image_subrep(_matrix_to_morphism(cur.rep, e))
            piece = Summand(sub, cur.inclusion.compose(incl),
                            proj.compose(cur.projection))
            (out if is_indecomposable(sub) else work).append(piece)
    out.sort(key=lambda s: (s.rep.dims, s.rep.label()))
    if sum(s.rep.total_dim for s in out) != M.total_dim:
        raise AssertionError("decomposition loses dimension")
    # verify the witnesses: projections . inclusions = identity blocks
    for s in out:
        pi = s.projection.compose(s.inclusion)
        if not all(np.array_equal(b, F.eye(b.shape[0])) for b in pi.blocks):
            raise AssertionError("summand witness is not a splitting")
    # ... and the idempotents inclusion . projection sum to the identity
    parts = [s.inclusion.compose(s.projection).blocks for s in out]
    if any(np.any(F.sub(sum(bs), F.eye(len(bs[0])))) for bs in zip(*parts)):
        raise AssertionError("summand idempotents do not sum to the identity")
    return [(s.rep.dims, s.rep.maps, [_frozen(b) for b in s.inclusion.blocks],
             [_frozen(b) for b in s.projection.blocks]) for s in out]
