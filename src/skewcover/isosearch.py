"""Brute-force isomorphism search between two bound quiver algebras:
a vertex bijection, an endpoint-compatible arrow bijection, and per-arrow
scalars such that every relation of the source maps into the target ideal.
Together with equal dimensions this certifies an algebra isomorphism.

Intended for the double-skew round trip on desk-scale quivers.  Vertex
and arrow bijections are generated lazily by backtracking, vertex ones
pruned by arrow counts between assigned vertices; scalars are drawn from
the roots of unity in play.  Candidates come in the order of
itertools.product over permutations, so the first isomorphism found does
not depend on the pruning.
"""

from __future__ import annotations

from itertools import product

from .field import PrimeField
from .quiver import BoundAlgebra, PathWord, path_source

# Scalar assignments tried per arrow bijection; a search that had to skip
# the scalars of some bijection and found no isomorphism refuses to answer.
MAX_SCALAR_COMBOS = 200_000


class ScalarCapError(Exception):
    """The search found no isomorphism but skipped the scalar assignments
    of some arrow bijection, so it cannot answer "not isomorphic"."""


def roots_of_unity(F: PrimeField, n: int) -> list[int]:
    if (F.p - 1) % n != 0:
        return [1]
    z = F.primitive_root_of_unity(n)
    return sorted({pow(z, k, F.p) for k in range(n)})


def ordered_bijections(classes, fits):
    """Bijections class by class, each class mapping its sources onto as
    many targets, in the order of itertools.product over the permutations of
    each class's targets, but keeping only the maps every partial
    assignment of which passes `fits(partial map, source, target)`.

    A backtracking search: memory stays linear in the number of sources,
    and one rejected test prunes every completion of that partial map.
    Yields a fresh dict per bijection.
    """
    slots = [(va, targets) for sources, targets in classes for va in sources]
    if not slots:
        yield {}
        return
    vmap: dict = {}
    used: set = set()
    choice = [-1] * len(slots)  # index into the targets of each slot
    depth = 0
    while depth >= 0:
        va, targets = slots[depth]
        if choice[depth] >= 0:
            used.discard(vmap.pop(va))
        k = choice[depth] + 1
        while k < len(targets) and (targets[k] in used
                                    or not fits(vmap, va, targets[k])):
            k += 1
        if k == len(targets):
            choice[depth] = -1
            depth -= 1
            continue
        choice[depth] = k
        vmap[va] = targets[k]
        used.add(targets[k])
        if depth == len(slots) - 1:
            yield dict(vmap)
        else:
            depth += 1


def _any_target(vmap, source, target) -> bool:
    return True


def _arrow_counts(q) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for a in q.arrows:
        counts[(a.source, a.target)] = counts.get((a.source, a.target), 0) + 1
    return counts


def _degree_profile(alg: BoundAlgebra, v: int):
    q = alg.quiver
    return (q.indegree(v), q.outdegree(v),
            sum(1 for a in q.arrows if a.source == a.target == v))


def _relation_maps_to_zero(A: BoundAlgebra, B: BoundAlgebra, rel,
                           vmap, amap, scalars) -> bool:
    F = A.F
    img: dict[int, int] = {}
    for c, w in rel.terms:
        coeff = c % F.p
        arrows = []
        for a in w.arrows:
            coeff = coeff * scalars[a] % F.p
            arrows.append(amap[a])
        bw = PathWord(vmap[path_source(A.quiver, w)], tuple(arrows))
        nf = B.nf.get(bw)
        if nf is None:
            return False
        for k, ck in nf.items():
            img[k] = (img.get(k, 0) + coeff * ck) % F.p
    return all(v % F.p == 0 for v in img.values())


def find_algebra_isomorphism(A: BoundAlgebra, B: BoundAlgebra,
                             scalar_pool: list[int] | None = None):
    """(vertex map, arrow map, scalars) realizing A = B, or None.

    The map sends arrow a to scalars[a] * amap[a]; relations of A must land
    in the ideal of B.  Scalars all 1 are tried before the pool.  When the
    pool's assignments to the arrows in A's relations exceed
    MAX_SCALAR_COMBOS they are not tried, and a search that finds nothing
    then raises ScalarCapError rather than return None.
    """
    if A.dim != B.dim:
        return None
    qa, qb = A.quiver, B.quiver
    if qa.n_vertices != qb.n_vertices or qa.n_arrows != qb.n_arrows:
        return None
    profs_b: dict[tuple, list[int]] = {}
    for v in range(qb.n_vertices):
        profs_b.setdefault(_degree_profile(B, v), []).append(v)
    by_prof: dict[tuple, list[int]] = {}
    for v in range(qa.n_vertices):
        by_prof.setdefault(_degree_profile(A, v), []).append(v)
    if {k: len(v) for k, v in by_prof.items()} != \
            {k: len(v) for k, v in profs_b.items()}:
        return None

    groups = sorted(by_prof.keys())
    count_a, count_b = _arrow_counts(qa), _arrow_counts(qb)

    def same_arrows(vmap, va, vb):
        if count_a.get((va, va), 0) != count_b.get((vb, vb), 0):
            return False
        return all(count_a.get((va, u), 0) == count_b.get((vb, w), 0)
                   and count_a.get((u, va), 0) == count_b.get((w, vb), 0)
                   for u, w in vmap.items())

    slots_a: dict[tuple[int, int], list[int]] = {}
    for i, a in enumerate(qa.arrows):
        slots_a.setdefault((a.source, a.target), []).append(i)

    free_arrows = sorted({a for r in A.relations for _, w in r.terms for a in w.arrows})
    combos = len(scalar_pool or ()) ** len(free_arrows)
    skipped = 0
    for vmap in ordered_bijections([(by_prof[g], profs_b[g]) for g in groups],
                                   same_arrows):
        # same_arrows makes every slot's target count match
        arrow_classes = [
            (arrs, [i for i, b in enumerate(qb.arrows)
                    if b.source == vmap[s] and b.target == vmap[t]])
            for (s, t), arrs in sorted(slots_a.items())]
        for amap in ordered_bijections(arrow_classes, _any_target):
            # all-ones scalars first
            ones = {a: 1 for a in range(qa.n_arrows)}
            if all(_relation_maps_to_zero(A, B, r, vmap, amap, ones)
                   for r in A.relations):
                return vmap, amap, ones
            if scalar_pool and len(scalar_pool) > 1:
                if combos > MAX_SCALAR_COMBOS:
                    skipped += 1
                    continue
                for vals in product(scalar_pool, repeat=len(free_arrows)):
                    scal = dict(ones)
                    for a, c in zip(free_arrows, vals):
                        scal[a] = c
                    if all(_relation_maps_to_zero(A, B, r, vmap, amap, scal)
                           for r in A.relations):
                        return vmap, amap, scal
    if skipped:
        raise ScalarCapError(
            f"no isomorphism found, but the scalars of {skipped} arrow "
            f"bijection(s) were not tried: {combos} assignments exceed the "
            f"limit MAX_SCALAR_COMBOS = {MAX_SCALAR_COMBOS}")
    return None
