"""Checks of the paper's intermediate claims, and the helpers only they use.

The command line answers what the paper applies: the irreducible
morphisms, almost split sequences and (stable) rank of Lambda G.  The
claims on the way there are checked here, by the tests only:

* semi-density of F_lambda (`semi_dense_witness`) and irreducible maps
  recovered through G_lambda (`recover_irreducible`, `apply_morphism`),
  once in `skewcover.pushdown`;
* F on vertices and arrows, and the arrow spaces between fibres
  (`functor_F_vertex`, `functor_F_arrow`, `arrow_space_dim`), once methods
  of `skew.SkewPresentation`; `orbit_arrow_data` recomputes the per-orbit
  arrow data that `SkewPresentation._build_arrows` used to record for
  them, with the same loop;
* radical powers and levels (`rad_power_basis`, `morphism_level`), once in
  `skewcover.rep`;
* the factorization property of an almost split sequence
  (`verify_almost_split`), once in `skewcover.ar`.

Each is kept verbatim, except that methods became functions of their
former owner and calls to them follow.  So are the helpers that nothing
else in the package used: `field.inverse`, `RepMorphism.inverse` (here
`inverse_morphism`), `AbelianGroup.generated_by` and
`QuiverAction.arrow_orbit`.  `_span`, the span of composites that `ar`
now reads off Hom stacks, is kept for `verify_almost_split`.
"""

import numpy as np

from skewcover.ar import AlmostSplitSequence
from skewcover.field import PrimeField, in_row_space, row_space, rref
from skewcover.action import QuiverAction
from skewcover.pushdown import GLambda, pushdown_module, restrict_G_lambda
from skewcover.quiver import make_path
from skewcover.rep import (RADICAL_CUTOFF, RadicalCalculator, RepMorphism,
                           Representation, Summand, decompose, hom_basis,
                           match_summands, module_stabilizer,
                           morphism_from_vector)
from skewcover.skew import QGVertex, SkewPresentation


# ---------------------------------------------------------------------------
# Linear algebra, groups and actions
# ---------------------------------------------------------------------------

def _span(F, morphisms: list[RepMorphism]) -> np.ndarray:
    """Echelon basis of the span of the morphisms' vectors (no rows if
    there are none)."""
    if not morphisms:
        return np.zeros((0, 0), dtype=np.int64)
    return row_space(F, np.stack([f.to_vector() for f in morphisms]))


def inverse(F: PrimeField, A: np.ndarray):
    """Inverse of a square matrix, or None if singular: one elimination of
    [A | I], whose left block reduces to I exactly when A is invertible."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("not square")
    R, piv = rref(F, np.concatenate([A, F.eye(n)], axis=1))
    if n and piv[n - 1] != n - 1:
        return None
    return R[:, n:].copy()


def inverse_morphism(f: RepMorphism) -> RepMorphism:
    F = f.source.F
    blocks = []
    for b in f.blocks:
        binv = inverse(F, b)
        if binv is None:
            raise ValueError("morphism is not invertible")
        blocks.append(binv)
    return RepMorphism(f.target, f.source, blocks)


def generated_by(G, elements) -> list[tuple[int, ...]]:
    """Subgroup generated by the given elements, as a sorted list."""
    sub = {G.identity()}
    frontier = list(sub)
    while frontier:
        nxt = []
        for g in frontier:
            for h in elements:
                gh = G.mul(g, h)
                if gh not in sub:
                    sub.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(sub)


def arrow_orbit(action: QuiverAction, a: int) -> list[int]:
    return sorted({action.arrow(g, a)[1] for g in action.group.elements})


# ---------------------------------------------------------------------------
# The semicovering F on the original quiver
# ---------------------------------------------------------------------------

def orbit_arrow_data(pres: SkewPresentation) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """Per Lambda-arrow: (case, D-representative arrow, twist) of its orbit,
    in the order `SkewPresentation._build_arrows` meets the arrows."""
    ctx = pres.context
    od, q = ctx.orbit_data, ctx.algebra.quiver
    order = {r: k for k, r in enumerate(od.representatives)}
    into: dict[tuple[int, int], list[int]] = {}
    for a, arr in enumerate(q.arrows):
        if arr.target in order:
            into.setdefault((ctx.rep_of_vertex(arr.source), arr.target), []).append(a)
    data = {}
    for i0, j0 in sorted(into, key=lambda ij: (order[ij[0]], order[ij[1]])):
        case = pres._case_of(i0, j0)
        rset = set(ctx.r_set(i0, j0))
        for a in into[i0, j0]:
            if q.arrows[a].source not in rset:  # D(i0, j0): sources in R_{i0 j0}
                continue
            for b in arrow_orbit(ctx.action, a):
                data[b] = (case, a, pres._case1_twist(i0, a))
    return data


def _arrow_vec(pres: SkewPresentation, a: int) -> np.ndarray:
    A = pres.context.algebra
    return A.unit_vector(A.basis[A.bindex[make_path(A.quiver, (a,))]])


def functor_F_vertex(pres: SkewPresentation, v: int) -> np.ndarray:
    """F(v) = e-bar_{i0} for the representative i0 of v's orbit."""
    ctx = pres.context
    rep = ctx.rep_of_vertex(v)
    out = ctx.F.zeros(1, ctx.skew.dim)[0]
    for chi in ctx.stab_chars[rep]:
        out = ctx.F.add(out, ctx.idempotents[QGVertex(rep, chi)])
    return out


def functor_F_arrow(pres: SkewPresentation, a: int) -> np.ndarray:
    """F(a): the canonical element of e(LG)e attached to a's orbit.

    Stable under the group action by construction: F(g a) = F(a).
    """
    ctx = pres.context
    S = ctx.skew
    case, rep_arrow, twist = orbit_arrow_data(pres)[a]
    elem = S.group_element(_arrow_vec(pres, rep_arrow),
                           twist if case == 1 else ctx.group.identity())
    return S.multiply(ctx.e_bar, S.multiply(elem, ctx.e_bar))


def arrow_space_dim(pres: SkewPresentation, i: int, j: int) -> int:
    """dim Lambda_1 G (F(i), F(j)): count of Q_G arrows between fibers."""
    ctx = pres.context
    ri, rj = ctx.rep_of_vertex(i), ctx.rep_of_vertex(j)
    return sum(1 for ar in pres.arrows
               if ar.source.rep == ri and ar.target.rep == rj)


# ---------------------------------------------------------------------------
# G_lambda on morphisms, semi-density and irreducible recovery
# ---------------------------------------------------------------------------

def apply_morphism(gl: GLambda, f: RepMorphism) -> RepMorphism:
    """G_lambda f: f made block-diagonal over the same fibres."""
    soff, sspan = gl._fibre_slices(f.source.dims)
    toff, tspan = gl._fibre_slices(f.target.dims)
    ftot = gl.F.zeros(toff[-1], soff[-1])
    for u, blk in enumerate(f.blocks):
        ftot[toff[u]: toff[u + 1], soff[u]: soff[u + 1]] = blk
    out = RepMorphism(gl.apply(f.source), gl.apply(f.target),
                      [ftot[t, s] for t, s in zip(tspan, sspan)])
    if not out.is_valid():
        raise AssertionError("G_lambda morphism fails commuting squares")
    return out


def semi_dense_witness(pres: SkewPresentation, N: Representation):
    """(M over Lambda, complement summands): F_lambda M = N + complement
    with M = G_lambda N."""
    if N.is_zero():
        A = pres.context.algebra
        Z = Representation(A, [0] * A.quiver.n_vertices, [None] * A.quiver.n_arrows)
        return Z, []
    M = restrict_G_lambda(pres, N)
    FM = pushdown_module(pres, M).rep
    parts = [s.rep for s in decompose(FM)]
    hits = match_summands([t.rep for t in decompose(N)], parts)
    if hits is None:
        raise AssertionError("F G_lambda N does not contain N as a summand")
    used = {k for k, _ in hits}
    return M, [s for k, s in enumerate(parts) if k not in used]


def recover_irreducible(pres: SkewPresentation, f: RepMorphism,
                        skew_action: QuiverAction):
    """Given an irreducible morphism between indecomposables over the skew
    algebra whose dual-action stabilizers are proper, pull it back to an
    irreducible morphism over Lambda via G_lambda and summand matching."""
    full = skew_action.group.n
    if any(len(module_stabilizer(skew_action, X)) == full for X in (f.source, f.target)):
        raise ValueError("recovery hypothesis needs proper dual stabilizers")
    gf = apply_morphism(GLambda(pres), f)
    mparts, nparts = decompose(gf.source), decompose(gf.target)
    # proper stabilizers: G_lambda of the ends is indecomposable
    if len(mparts) != 1 or len(nparts) != 1:
        raise AssertionError("ends did not restrict to indecomposables")
    f1 = nparts[0].projection.compose(gf).compose(mparts[0].inclusion)
    return mparts[0].rep, nparts[0].rep, f1


# ---------------------------------------------------------------------------
# Radical powers and levels
# ---------------------------------------------------------------------------

def rad_power_basis(calc: RadicalCalculator, M: Representation,
                    N: Representation, n: int) -> list[RepMorphism]:
    i, j = calc.index_of(M), calc.index_of(N)
    rows = calc.rad(i, j, n)
    return [morphism_from_vector(calc.reps[i], calc.reps[j], rows[r])
            for r in range(rows.shape[0])]


def morphism_level(calc: RadicalCalculator, f: RepMorphism,
                   msum: list[Summand], nsum: list[Summand],
                   miso: list[tuple[int, RepMorphism]],
                   niso: list[tuple[int, RepMorphism]]) -> int:
    """Radical level of f: M -> N through summand decompositions.

    `miso[k] = (index in calc.reps, iso: canonical -> summand rep)`, same
    for `niso`.  Componentwise per the block criterion: the level of f is
    the minimum over blocks of their levels (0 = some block not radical).
    """
    best = RADICAL_CUTOFF + 1
    for a, ms in enumerate(msum):
        ia, ua = miso[a]
        for b, ns in enumerate(nsum):
            ib, ub = niso[b]
            block = ns.projection.compose(f).compose(ms.inclusion)
            canon = inverse_morphism(ub).compose(block).compose(ua)
            lvl = calc.membership_level(ia, ib, canon)
            best = min(best, lvl)
    return best


# ---------------------------------------------------------------------------
# The factorization property of an almost split sequence
# ---------------------------------------------------------------------------

def _locate(calc: RadicalCalculator, M: Representation):
    """(i, u: calc.reps[i] -> M); KeyError when M is not in the list."""
    found = calc.classes.locate(M)
    if found is None:
        raise KeyError(f"module {M.dims} is not in the indecomposable list")
    return found


def verify_almost_split(seq: AlmostSplitSequence, ind_list: list[Representation],
                        calc: RadicalCalculator) -> bool:
    """Factorization test against a complete list of indecomposables:
    every radical morphism Y -> T factors through the right-hand map, and
    dually every radical X -> Y factors through the left-hand map."""
    F = seq.left.F
    T, X = seq.right, seq.left
    iT, uT = _locate(calc, T)
    iX, uX = _locate(calc, X)
    for Y in ind_list:
        iY, uY = _locate(calc, Y)
        radYT = calc.rad(iY, iT, 1)
        if radYT.shape[0]:
            through = _span(F, [seq.proj.compose(g)
                                for g in hom_basis(Y, seq.middle).basis])
            for r in range(radYT.shape[0]):
                f0 = morphism_from_vector(calc.reps[iY], calc.reps[iT], radYT[r])
                f = uT.compose(f0).compose(inverse_morphism(uY))
                if not in_row_space(F, through, f.to_vector()):
                    return False
        radXY = calc.rad(iX, iY, 1)
        if radXY.shape[0]:
            through = _span(F, [g.compose(seq.incl)
                                for g in hom_basis(seq.middle, Y).basis])
            for r in range(radXY.shape[0]):
                g0 = morphism_from_vector(calc.reps[iX], calc.reps[iY], radXY[r])
                g = uY.compose(g0).compose(inverse_morphism(uX))
                if not in_row_space(F, through, g.to_vector()):
                    return False
    return True
