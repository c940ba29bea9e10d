"""The semi-covering check the package made before `CoveringTable`: one
pair at a time, with both pushdowns, both stabilizers and every twist
rebuilt for each pair.  Kept as an oracle for the table's reports.
"""

from skewcover.pushdown import (SemiCoveringReport, _block_pattern,
                                pushdown_module)
from skewcover.rep import hom_basis, is_isomorphic, twist


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
