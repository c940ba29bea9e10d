"""The semi-covering checks the package made before: `verify_semi_covering`
one pair at a time, with both pushdowns, both stabilizers and every twist
rebuilt for each pair, and `PairCoveringTable`, the table that solved
dim Hom(F M, F N) on every pair.  Kept as oracles for the table's reports.
"""

import functools

from skewcover.pushdown import (SemiCoveringReport, _block_pattern,
                                pushdown_module)
from skewcover.rep import IsoClasses, hom_basis, is_isomorphic, twist


def module_stabilizer(action, M):
    """{g : gM isomorphic to M} (a subgroup; tested elementwise)."""
    out = []
    for g in action.group.elements:
        if is_isomorphic(twist(action, g, M), M):
            out.append(g)
    return out


def verify_semi_covering(pres, M, N, with_pattern=False):
    """Both sides of the Hom-space identity for the applicable case, with
    hom_basis as the oracle on both algebras.  `with_pattern` additionally
    reports the nonzero-block matrix over the twist-summand decompositions
    in the doubly-stable case."""
    ctx = pres.context
    act, G = ctx.action, ctx.group
    FM = pushdown_module(pres, M).rep
    FN = pushdown_module(pres, N).rep
    lhs = hom_basis(FM, FN).dimension
    stab_M = module_stabilizer(act, M)
    stab_N = module_stabilizer(act, N)
    full = len(G.elements)
    if len(stab_M) < full:
        case = "G_M != G"
        rhs = sum(hom_basis(twist(act, g, M), N).dimension for g in G.elements)
    elif len(stab_N) < full:
        case = "G_N != G"
        rhs = sum(hom_basis(M, twist(act, g, N)).dimension for g in G.elements)
    else:
        case = "G_MN = G"
        rhs = full * hom_basis(M, N).dimension
    pattern = None
    if with_pattern and case == "G_MN = G" and not M.is_zero() and not N.is_zero():
        pattern = _block_pattern(pres, M, N, FM, FN)
    return SemiCoveringReport(case, lhs, rhs, len(stab_M), len(stab_N),
                              lhs == rhs, pattern)


class PairCoveringTable:
    """The semi-covering identity over a module list, with each per-module
    fact computed once: the pushdown F M, and the class of M and of every
    twist gM in one IsoClasses, so G_M = {g : class(gM) = class(M)}.  The
    Lambda side sums Hom dimensions between classes, each solved once; the
    skew side, dim Hom(F M, F N), is solved per pair as the oracle."""

    def __init__(self, pres, modules):
        act, G = pres.context.action, pres.context.group
        self.order = G.n
        self.pushdowns = [pushdown_module(pres, M).rep for M in modules]
        classes = IsoClasses()
        self._cls = [classes.add(M) for M in modules]
        self._twists = [[classes.add(twist(act, g, M)) for g in G.elements]
                        for M in modules]
        reps = classes.reps
        self._h = functools.cache(lambda c, d: hom_basis(reps[c], reps[d]).dimension)

    def report(self, i, j):
        """Both sides of the identity for modules i and j."""
        ci, cj = self._cls[i], self._cls[j]
        stab_M, stab_N = self._twists[i].count(ci), self._twists[j].count(cj)
        if stab_M < self.order:
            case, rhs = "G_M != G", sum(self._h(c, cj) for c in self._twists[i])
        elif stab_N < self.order:
            case, rhs = "G_N != G", sum(self._h(ci, c) for c in self._twists[j])
        else:
            case, rhs = "G_MN = G", self.order * self._h(ci, cj)
        lhs = hom_basis(self.pushdowns[i], self.pushdowns[j]).dimension
        return SemiCoveringReport(case, lhs, rhs, stab_M, stab_N, lhs == rhs)
