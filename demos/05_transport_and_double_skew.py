"""Walkthrough: transporting almost split sequences along the covering
(glued pairs, disjoint pairs, single meshes) and the double-skew round
trip back to the original algebra.

Run from the repository root:  python demos/05_transport_and_double_skew.py
"""

import importlib.resources as resources

from skewcover import (build_input, build_presentation, knit_ar_quiver,
                       parse_input)
from skewcover.transport import pushdown_sequences
from skewcover.isosearch import find_algebra_isomorphism, roots_of_unity


def data(name):
    return resources.files("skewcover").joinpath(f"data/{name}").read_text()


b5 = build_input(parse_input(data("fig5.skw")))
pres = build_presentation(b5.algebra, b5.group, b5.action)
arq = knit_ar_quiver(b5.algebra, action=b5.action)
arq_skew = knit_ar_quiver(pres.algebra, action=pres.dual_group_action()[1])
pushed = pushdown_sequences(pres, arq, arq_skew)

print("=" * 70)
print("Every almost split sequence over the base pushes to knitted meshes")
print("=" * 70)
for t, out in pushed.items():
    seq = arq.sequences[t]
    form = ("single" if out.single
            else "glued pair" if out.gluing else "disjoint pair")
    stab = "full" if out.stabilizer_order == b5.group.n else "trivial"
    glue = (f", glued via {[list(z.dims) for z in out.gluing]}"
            if out.gluing else "")
    print(f"  right term {str(seq.right.dims):14s} stabilizer {stab:7s} "
          f"-> {form}{glue}")

print()
print("=" * 70)
print("The two worked sequences")
print("=" * 70)
for t, seq in arq.sequences.items():
    out = pushed[t]
    if seq.left.dims == (1, 1, 0, 0) and seq.left.label() == "1,0,0,0|0,1,0,0":
        print("left term the stable two-factor module: the pushdown is the")
        print(f"  direct sum of {len(out.sequences)} sequences (gluing module 0)")
    if seq.left.dims == (0, 1, 0, 0):
        print("left term the stable simple: the pushdown glues "
              f"{len(out.sequences)} sequences via Z with dims "
              f"{[list(z.dims) for z in out.gluing]}")

print()
print("=" * 70)
print("Double skew: skewing the skew by the dual action returns the base")
print("=" * 70)
dual, dact = pres.dual_group_action()
pres2 = build_presentation(pres.algebra, dual, dact)
pool = sorted(set(roots_of_unity(b5.field, 2)) | {b5.field.p - 1})
iso = find_algebra_isomorphism(pres2.algebra, b5.algebra, pool)
print(f"dim after double skew: {pres2.algebra.dim} (base: {b5.algebra.dim})")
print(f"quiver isomorphism found: {iso is not None}")
if iso:
    vmap, amap, scal = iso
    print("vertex matching:", {pres2.qg.vertices[v]: b5.quiver.vertices[w]
                               for v, w in sorted(vmap.items())})
