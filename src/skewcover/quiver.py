"""Quivers, paths, relations, and bound quiver algebras with a normal-form
path basis, plus the gentle / skew-gentle recognizers.

Composition convention is functional throughout: a path word (a_k, ..., a_1)
means "apply a_1 first", so it runs from s(a_1) to t(a_k) and the product
w2 * w1 concatenates as w2 + w1.  Relation inputs are expected in the same
convention.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .field import PrimeField, rref, StructureConstants

MAX_PATHS_PER_DEGREE = 200_000


class NotAdmissibleError(Exception):
    """The relation ideal is not admissible within the length bound."""


class InhomogeneousRelationError(Exception):
    """Algebra construction requires length-homogeneous relations.

    Relations with mixed-length terms (special idempotent loops, f^2 - f)
    are accepted by the recognizers but cannot be given a graded path basis.
    """


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    """A finite quiver with named vertices and arrows."""

    def __init__(self, vertices: list[str], arrows: list[tuple[str, str, str]]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        self.vertices = list(vertices)
        self.vindex = {v: i for i, v in enumerate(vertices)}
        seen = set()
        self.arrows: list[Arrow] = []
        for name, s, t in arrows:
            if name in seen:
                raise ValueError(f"duplicate arrow name {name!r}")
            seen.add(name)
            if s not in self.vindex or t not in self.vindex:
                raise ValueError(f"arrow {name!r} has undeclared endpoint")
            self.arrows.append(Arrow(name, self.vindex[s], self.vindex[t]))
        self.aindex = {a.name: i for i, a in enumerate(self.arrows)}
        # per vertex, the arrows out of it and into it, in index order
        outs, ins = [[] for _ in vertices], [[] for _ in vertices]
        for i, a in enumerate(self.arrows):
            outs[a.source].append(i)
            ins[a.target].append(i)
        self._out, self._in = list(map(tuple, outs)), list(map(tuple, ins))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrows_from(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def arrows_into(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def indegree(self, v: int) -> int:
        return len(self.arrows_into(v))

    def outdegree(self, v: int) -> int:
        return len(self.arrows_from(v))

    def __repr__(self):
        return f"Quiver({self.n_vertices} vertices, {self.n_arrows} arrows)"


class PathWord(NamedTuple):
    """A composable path: `arrows` lists arrow indices in functional order
    (rightmost applied first).  Trivial paths carry the vertex alone.  A
    tuple, so it hashes and compares in C; no dict keyed by path words
    holds any other tuple."""

    vertex: int          # source vertex for trivial paths; else derived
    arrows: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return not self.arrows

    def length(self) -> int:
        return len(self.arrows)


def path_source(q: Quiver, w: PathWord) -> int:
    return w.vertex if w.is_trivial() else q.arrows[w.arrows[-1]].source


def path_target(q: Quiver, w: PathWord) -> int:
    return w.vertex if w.is_trivial() else q.arrows[w.arrows[0]].target


def make_path(q: Quiver, arrow_indices: tuple[int, ...]) -> PathWord:
    """Build a path word, checking composability junction by junction."""
    if not arrow_indices:
        raise ValueError("use PathWord(vertex) for trivial paths")
    for hi, lo in zip(arrow_indices, arrow_indices[1:]):
        if q.arrows[hi].source != q.arrows[lo].target:
            raise ValueError(
                f"non-composable at {q.arrows[hi].name!r} after {q.arrows[lo].name!r}"
            )
    return PathWord(q.arrows[arrow_indices[-1]].source, tuple(arrow_indices))


def path_str(q: Quiver, w: PathWord) -> str:
    if w.is_trivial():
        return f"e({q.vertices[w.vertex]})"
    return ".".join(q.arrows[i].name for i in w.arrows)


@dataclass(frozen=True)
class RelationElement:
    """A linear combination of parallel paths: terms are (coefficient, word).

    Terms must share source and target.  Length-1 terms are tolerated so the
    skew-gentle special loop relations f.f - f can be represented; the
    algebra builder itself insists on homogeneous length >= 2.
    """

    terms: tuple[tuple[int, PathWord], ...]

    def degree_set(self) -> set[int]:
        return {w.length() for _, w in self.terms}


def check_relation(q: Quiver, rel: RelationElement):
    if not rel.terms:
        raise ValueError("empty relation")
    srcs = {path_source(q, w) for _, w in rel.terms}
    tgts = {path_target(q, w) for _, w in rel.terms}
    if len(srcs) != 1 or len(tgts) != 1:
        raise ValueError("relation terms are not parallel")
    if any(c == 0 for c, _ in rel.terms):
        raise ValueError("zero coefficient in relation")
    if any(w.length() < 1 for _, w in rel.terms):
        raise ValueError("relation contains a trivial path")


def ideal_closure(F: PrimeField, q: Quiver,
                  vectors: list[dict[PathWord, int]]) -> list[dict[PathWord, int]]:
    """Generators of the next degree of the two-sided ideal spanned by
    `vectors` (same-degree combinations of paths): a*x and x*a for every
    vector x and arrow a, left products before right ones, zeros dropped."""
    gens: list[dict[PathWord, int]] = []
    for x in vectors:
        by_left: dict[int, dict[PathWord, int]] = {}
        by_right: dict[int, dict[PathWord, int]] = {}
        for w, c in x.items():
            for ai in q.arrows_from(path_target(q, w)):
                nw = PathWord(path_source(q, w), (ai,) + w.arrows)
                blk = by_left.setdefault(ai, {})
                blk[nw] = (blk.get(nw, 0) + c) % F.p
            for ai in q.arrows_into(path_source(q, w)):
                nw = PathWord(q.arrows[ai].source, w.arrows + (ai,))
                blk = by_right.setdefault(ai, {})
                blk[nw] = (blk.get(nw, 0) + c) % F.p
        gens.extend(v for v in by_left.values() if any(v.values()))
        gens.extend(v for v in by_right.values() if any(v.values()))
    return gens


class BoundAlgebra:
    """Lambda = KQ / <relations>, with a normal-form path basis.

    Built degree by degree: for d = 2..N the span of length-d paths is
    quotiented by the degree-d component of the two-sided ideal; surviving
    paths form the basis.  Fails if dimension has not died out at length N.
    """

    def __init__(self, F: PrimeField, quiver: Quiver,
                 relations: list[RelationElement], length_bound: int = 12):
        by_degree: dict[int, list[RelationElement]] = {}
        for r in relations:
            check_relation(quiver, r)
            degs = r.degree_set()
            if len(degs) > 1:
                raise InhomogeneousRelationError(
                    "relations must be length-homogeneous for algebra construction"
                )
            if min(degs) < 2:
                raise InhomogeneousRelationError(
                    "length-1 relation terms are not admissible"
                )
            by_degree.setdefault(max(degs), []).append(r)
        self._build(F, quiver, length_bound,
                    lambda paths, closure: by_degree.get(paths[0].length(), []))
        self.relations = list(relations)

    @classmethod
    def generated(cls, F: PrimeField, quiver: Quiver, source,
                  length_bound: int = 12) -> "BoundAlgebra":
        """The algebra whose relations `source` finds degree by degree.

        `source(paths, closure)` is called once per degree d with the
        degree-d paths and a matrix over them whose rows span the degree-d
        part of the ideal the lower degrees generate; it returns the new
        degree-d relations.  `relations` lists them in the order returned.
        """
        self = cls.__new__(cls)
        self.relations = self._build(F, quiver, length_bound, source)
        return self

    # -- construction -----------------------------------------------------

    def _build(self, F: PrimeField, q: Quiver, N: int, source):
        """The one degree walk: basis and normal forms, from which the
        product table is built on first use.  Returns the relations
        `source` gave, in degree order."""
        if N < 1:
            raise ValueError(f"length bound {N} is below 1")
        self.F, self.quiver, self.length_bound = F, q, N
        found: list[RelationElement] = []
        self.basis: list[PathWord] = [PathWord(v) for v in range(q.n_vertices)]
        # nf maps every enumerated path to its coordinate vector over basis
        self.nf: dict[PathWord, dict[int, int]] = {
            PathWord(v): {v: 1} for v in range(q.n_vertices)
        }
        paths_prev = [PathWord(v) for v in range(q.n_vertices)]
        ideal_prev: list[dict[PathWord, int]] = []  # vectors over paths of prev degree

        for d in range(1, N + 1):
            # all composable extensions of the previous degree's paths
            paths_d: list[PathWord] = []
            pindex: dict[PathWord, int] = {}
            for w in paths_prev:
                for ai in q.arrows_from(path_target(q, w)):
                    nw = PathWord(path_source(q, w), (ai,) + w.arrows)
                    pindex[nw] = len(paths_d)
                    paths_d.append(nw)
            if len(paths_d) > MAX_PATHS_PER_DEGREE:
                raise NotAdmissibleError(f"path explosion at degree {d}")
            if not paths_d:
                break

            # degree-d component of the ideal: arrows * ideal_{d-1},
            # ideal_{d-1} * arrows, and the source's relations of degree d
            closure = ideal_closure(F, q, ideal_prev)
            G = F.zeros(len(closure), len(paths_d))
            for i, g in enumerate(closure):
                for w, c in g.items():
                    G[i, pindex[w]] = c
            rels = list(source(paths_d, G))
            found.extend(rels)
            if rels:
                rows = F.zeros(len(rels), len(paths_d))
                for i, r in enumerate(rels):
                    for c, w in r.terms:
                        if w not in pindex:
                            raise ValueError(
                                f"relation path {path_str(q, w)} is not a path of the quiver"
                            )
                        rows[i, pindex[w]] = (rows[i, pindex[w]] + c) % F.p
                G = np.concatenate([G, rows])

            if len(G):
                R, piv = rref(F, G)
                ideal_rows = R[: len(piv)]
                pivset = set(piv)
            else:
                ideal_rows = G
                piv, pivset = [], set()

            # surviving (non-pivot) paths are the degree-d basis; pivot paths
            # rewrite as combinations of survivors
            survivors = [i for i in range(len(paths_d)) if i not in pivset]
            offset = len(self.basis)
            for i in survivors:
                self.basis.append(paths_d[i])
            surv_pos = {i: offset + k for k, i in enumerate(survivors)}
            for i in survivors:
                self.nf[paths_d[i]] = {surv_pos[i]: 1}
            for r, c in enumerate(piv):
                vec = {}
                for i in survivors:
                    coef = int((-ideal_rows[r, i]) % F.p)
                    if coef:
                        vec[surv_pos[i]] = coef
                self.nf[paths_d[c]] = vec

            ideal_prev = [
                {paths_d[i]: int(ideal_rows[r, i]) for i in range(len(paths_d)) if ideal_rows[r, i]}
                for r in range(ideal_rows.shape[0])
            ]
            paths_prev = paths_d
            if not survivors:
                break
        else:
            raise NotAdmissibleError(
                f"paths of length {N} do not all vanish; not admissible within bound {N}"
            )

        self.dim = len(self.basis)
        self.bindex = {w: i for i, w in enumerate(self.basis)}
        return found

    @cached_property
    def structure(self) -> StructureConstants:
        """The sparse product table, built on first use."""
        return self._build_structure()

    def _build_structure(self) -> StructureConstants:
        """Nonzero structure constants straight from the normal forms,
        visiting only composable pairs (b_i after b_j needs s(b_i) = t(b_j))."""
        F, q = self.F, self.quiver
        by_source: dict[int, list[int]] = {}
        for i, w in enumerate(self.basis):
            by_source.setdefault(path_source(q, w), []).append(i)
        entries = []
        for j, wj in enumerate(self.basis):
            for i in by_source.get(path_target(q, wj), ()):
                wi = self.basis[i]
                if wi.is_trivial():
                    nf = self.nf[wj]
                elif wj.is_trivial():
                    nf = self.nf[wi]
                else:
                    nf = self.nf.get(PathWord(path_source(q, wj), wi.arrows + wj.arrows), {})
                entries.extend((i, j, k, c) for k, c in nf.items())
        I, J, K, C = np.array(entries, dtype=np.int64).reshape(-1, 4).T
        one = F.zeros(1, self.dim)[0]
        for v in range(q.n_vertices):
            one[self.bindex[PathWord(v)]] = 1
        return StructureConstants.from_coo(F, self.dim, I, J, K, C, one)

    # -- public API -------------------------------------------------------

    def unit_vector(self, w: PathWord) -> np.ndarray:
        v = self.F.zeros(1, self.dim)[0]
        v[self.bindex[w]] = 1
        return v

    def idempotent(self, vertex: int) -> np.ndarray:
        return self.unit_vector(PathWord(vertex))

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x o y with y applied first (functional order)."""
        return self.structure.multiply(x, y)

    @cached_property
    def basis_by_blocks(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Indices of basis paths grouped by (target vertex, source vertex),
        built on first use and read-only."""
        q = self.quiver
        blocks: dict[tuple[int, int], list[int]] = {}
        for k, w in enumerate(self.basis):
            blocks.setdefault((path_target(q, w), path_source(q, w)), []).append(k)
        return MappingProxyType({key: tuple(ks) for key, ks in blocks.items()})

    def __repr__(self):
        return f"BoundAlgebra(dim={self.dim}, {self.quiver!r})"


# ---------------------------------------------------------------------------
# Gentle and skew-gentle recognizers
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    clause: str
    witness: str


def _monomial_len2(q: Quiver, relations: list[RelationElement]):
    """Split relations into length-2 monomial pairs; report offenders."""
    pairs = set()
    bad = []
    for r in relations:
        if len(r.terms) != 1:
            bad.append(Violation(
                "monomial", "relation with terms " +
                " + ".join(path_str(q, w) for _, w in r.terms)))
            continue
        _, w = r.terms[0]
        if w.length() != 2:
            bad.append(Violation("length-2", path_str(q, w)))
            continue
        pairs.add((w.arrows[0], w.arrows[1]))  # (outer, inner): outer after inner
    return pairs, bad


def _locally_gentle(q: Quiver, relations: list[RelationElement],
                    arrows: list[int] | None = None):
    """Clauses (1)-(3) of the gentle condition on the given arrow subset."""
    arrows = list(range(q.n_arrows)) if arrows is None else arrows
    aset = set(arrows)
    pairs, violations = _monomial_len2(q, relations)
    pairs = {(x, y) for (x, y) in pairs if x in aset and y in aset}

    for v in range(q.n_vertices):
        ins = [a for a in q.arrows_into(v) if a in aset]
        outs = [a for a in q.arrows_from(v) if a in aset]
        if len(ins) > 2:
            violations.append(Violation("indegree<=2", q.vertices[v]))
        if len(outs) > 2:
            violations.append(Violation("outdegree<=2", q.vertices[v]))

    for b in arrows:
        tv = q.arrows[b].target
        cont = [a for a in q.arrows_from(tv) if a in aset]
        killed = [a for a in cont if (a, b) in pairs]
        alive = [a for a in cont if (a, b) not in pairs]
        if len(killed) > 1:
            violations.append(Violation(
                "unique-killed-continuation", q.arrows[b].name))
        if len(alive) > 1:
            violations.append(Violation(
                "unique-alive-continuation", q.arrows[b].name))
        sv = q.arrows[b].source
        pred = [c for c in q.arrows_into(sv) if c in aset]
        killed_p = [c for c in pred if (b, c) in pairs]
        alive_p = [c for c in pred if (b, c) not in pairs]
        if len(killed_p) > 1:
            violations.append(Violation(
                "unique-killed-predecessor", q.arrows[b].name))
        if len(alive_p) > 1:
            violations.append(Violation(
                "unique-alive-predecessor", q.arrows[b].name))
    return pairs, violations


def _admissible_monomial(q: Quiver, pairs: set[tuple[int, int]],
                         arrows: list[int] | None = None) -> bool:
    """A monomial length-2 ideal is admissible iff the allowed-composition
    graph on arrows has no directed cycle."""
    arrows = list(range(q.n_arrows)) if arrows is None else arrows
    aset = set(arrows)
    succ = {
        b: [a for a in q.arrows_from(q.arrows[b].target)
            if a in aset and (a, b) not in pairs]
        for b in arrows
    }
    color = {a: 0 for a in arrows}

    def dfs(a):
        color[a] = 1
        for nxt in succ[a]:
            if color[nxt] == 1:
                return False
            if color[nxt] == 0 and not dfs(nxt):
                return False
        color[a] = 2
        return True

    return all(dfs(a) for a in arrows if color[a] == 0)


def is_gentle(q: Quiver, relations: list[RelationElement]):
    """Check the four gentle-algebra conditions.  Returns (bool, violations)."""
    pairs, violations = _locally_gentle(q, relations)
    _, mono_bad = _monomial_len2(q, relations)
    if not mono_bad and not _admissible_monomial(q, pairs):
        violations.append(Violation("admissible", "allowed compositions contain a cycle"))
    return (not violations), violations


def is_skew_gentle(q: Quiver, relations: list[RelationElement],
                   special_loops: list[str], p: int | None = None):
    """Check the skew-gentle conditions with the given set of special loops.

    The special loops f must carry exactly the relation f.f - f (up to a
    scalar), the quiver minus the loops must be locally gentle for the
    remaining relations, and each special vertex must border exactly one
    ordinary arrow on each side, with the through-composition killed.
    Coefficients are compared mod p when p is given.
    """

    def is_zero(c: int) -> bool:
        return c % p == 0 if p else c == 0

    violations: list[Violation] = []
    loop_idx = []
    for name in special_loops:
        if name not in q.aindex:
            violations.append(Violation("special-loop-exists", name))
            continue
        a = q.arrows[q.aindex[name]]
        if a.source != a.target:
            violations.append(Violation("special-is-loop", name))
            continue
        loop_idx.append(q.aindex[name])
    loops = set(loop_idx)

    rel_prime: list[RelationElement] = []
    seen_idem = set()
    for r in relations:
        touched = {a for _, w in r.terms for a in w.arrows} & loops
        if not touched:
            rel_prime.append(r)
            continue
        ok = False
        if len(r.terms) == 2:
            (c1, w1), (c2, w2) = sorted(r.terms, key=lambda t: -t[1].length())
            if (w1.length() == 2 and w2.length() == 1
                    and len(set(w1.arrows)) == 1 and w1.arrows[0] in loops
                    and w2.arrows[0] == w1.arrows[0]
                    and not is_zero(c1) and is_zero(c1 + c2)):
                ok = True
                seen_idem.add(w1.arrows[0])
        if not ok:
            violations.append(Violation(
                "special-relation-shape",
                " + ".join(path_str(q, w) for _, w in r.terms)))
    for li in loops:
        if li not in seen_idem:
            violations.append(Violation("special-loop-has-idempotent-relation",
                                        q.arrows[li].name))

    ordinary = [i for i in range(q.n_arrows) if i not in loops]
    pairs, lg_viol = _locally_gentle(q, rel_prime, ordinary)
    violations.extend(lg_viol)

    for li in loops:
        x = q.arrows[li].source
        other_loops = [a for a in range(q.n_arrows)
                       if a != li and q.arrows[a].source == q.arrows[a].target == x]
        if other_loops:
            violations.append(Violation("no-other-loop", q.vertices[x]))
        ins = [a for a in ordinary if q.arrows[a].target == x]
        outs = [a for a in ordinary if q.arrows[a].source == x]
        if len(ins) > 1 or len(outs) > 1 or (len(ins) + len(outs)) == 0:
            violations.append(Violation("special-vertex-valence", q.vertices[x]))
        for ai in ins:
            for bo in outs:
                if (bo, ai) not in pairs:
                    violations.append(Violation(
                        "through-composition-killed",
                        f"{q.arrows[bo].name}.{q.arrows[ai].name}"))
    return (not violations), violations
