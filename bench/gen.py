"""Deterministic generator for the two scaling families of the benchmark.

* ``star(n, L)``: the Z_n star.  A fixed centre with n arms of L vertices
  each, every arrow pointing towards the centre; the generator of Z_n
  rotates arm k onto arm k+1.  Z3 with L=1 is D4, Z3 with L=2 is the
  Euclidean type E6~.
* ``free_cover(n, L)``: the free Z_n cover of A_L.  n disjoint linearly
  oriented copies of A_L, the generator moving copy k onto copy k+1.

Both are path algebras (no relations) in the ``.skw`` input format.  The
seed only renames vertices and arrows: every name is a seed-chosen
two-letter prefix followed by a fixed suffix, so the declaration order,
the sorted order of names, the structure and the work are the same for
every seed.
"""

from __future__ import annotations

import random
import string

DEFAULT_SEED = 0


def prefixes(seed: int) -> tuple[str, str]:
    """Two distinct two-letter name prefixes, one for vertices, one for
    arrows.  ``x`` is left out so no name can be read as a group factor."""
    letters = string.ascii_lowercase.replace("x", "")
    rng = random.Random(f"skewcover-bench-names-{seed}")
    while True:
        vp = "".join(rng.choice(letters) for _ in range(2))
        ap = "".join(rng.choice(letters) for _ in range(2))
        if vp != ap:
            return vp, ap


def _render(title: str, order: int, vertices: list[str],
            arrows: list[tuple[str, str, str]], vmap: dict[str, str],
            amap: dict[str, str]) -> str:
    lines = [f"# {title}", "field p = 1009"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a}: {s} -> {t}" for a, s, t in arrows]
    lines.append(f"group Z{order}")
    lines += [f"action g1: vertex {v} -> {w}" for v, w in vmap.items() if v != w]
    lines += [f"action g1: arrow {a} -> {b}" for a, b in amap.items() if a != b]
    return "\n".join(lines) + "\n"


def star(n: int, length: int, seed: int = DEFAULT_SEED) -> str:
    vp, ap = prefixes(seed)
    centre = f"{vp}0_0"

    def vert(k: int, i: int) -> str:
        return f"{vp}{k}_{i}"

    def arr(k: int, i: int) -> str:
        return f"{ap}{k}_{i}"

    vertices = [centre]
    arrows = []
    vmap, amap = {}, {}
    for k in range(1, n + 1):
        nk = k % n + 1
        for i in range(1, length + 1):
            vertices.append(vert(k, i))
            head = vert(k, i + 1) if i < length else centre
            arrows.append((arr(k, i), vert(k, i), head))
            vmap[vert(k, i)] = vert(nk, i)
            amap[arr(k, i)] = arr(nk, i)
    return _render(f"Z{n} star, arm length {length}", n, vertices, arrows,
                   vmap, amap)


def free_cover(n: int, length: int, seed: int = DEFAULT_SEED) -> str:
    vp, ap = prefixes(seed)

    def vert(k: int, i: int) -> str:
        return f"{vp}{k}_{i}"

    def arr(k: int, i: int) -> str:
        return f"{ap}{k}_{i}"

    vertices, arrows = [], []
    vmap, amap = {}, {}
    for k in range(n):
        nk = (k + 1) % n
        for i in range(1, length + 1):
            vertices.append(vert(k, i))
            vmap[vert(k, i)] = vert(nk, i)
            if i < length:
                arrows.append((arr(k, i), vert(k, i), vert(k, i + 1)))
                amap[arr(k, i)] = arr(nk, i)
    return _render(f"free Z{n} cover of A{length}", n, vertices, arrows,
                   vmap, amap)


FAMILIES = {"star": star, "cover": free_cover}


def generate(family: str, n: int, length: int, seed: int = DEFAULT_SEED) -> str:
    return FAMILIES[family](n, length, seed)
