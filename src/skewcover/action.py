"""Finite abelian groups, their character groups over F_p, and validated
actions on bound quiver algebras.

Elements of Z_{n_1} x ... x Z_{n_k} are exponent tuples, ordered
lexicographically everywhere a canonical order is needed.  Actions are given
per generator by a vertex permutation and an arrow map sending each arrow to
a scalar multiple of an arrow (the eigen-arrow form the theory guarantees
exists; supplying it is the caller's job).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm

import numpy as np

from .field import PrimeField, coalesce, match_pairs
from .quiver import BoundAlgebra, PathWord, path_source


class AbelianGroup:
    """Direct product of cyclic groups of the given orders."""

    def __init__(self, orders: tuple[int, ...]):
        if not orders:
            orders = (1,)
        if any(n < 1 for n in orders):
            raise ValueError("cyclic orders must be positive")
        self.orders = tuple(int(n) for n in orders)
        self.n = int(np.prod(self.orders))
        self.elements: list[tuple[int, ...]] = sorted(product(*[range(n) for n in self.orders]))
        self.eindex = {g: i for i, g in enumerate(self.elements)}

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    def identity(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.orders)

    def mul(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def inv(self, g) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(g, self.orders))

    def generators(self) -> list[tuple[int, ...]]:
        gens = []
        for i in range(len(self.orders)):
            g = [0] * len(self.orders)
            g[i] = 1 % self.orders[i]
            gens.append(tuple(g))
        return gens

    def __repr__(self):
        return "Z" + " x Z".join(str(n) for n in self.orders)


@dataclass(frozen=True)
class Character:
    """A character of an abelian group, stored as an exponent tuple.

    chi(g) = prod zeta_i^(c_i g_i) where zeta_i is the least primitive
    n_i-th root of unity in F_p.
    """

    exponents: tuple[int, ...]

    def label(self) -> str:
        return "r" + "".join(str(c) for c in self.exponents)


class CharacterGroup:
    """All characters of G with values in F_p (requires p = 1 mod exp G)."""

    def __init__(self, F: PrimeField, group: AbelianGroup):
        if (F.p - 1) % group.exponent != 0:
            raise ValueError(
                f"F_{F.p} has no faithful character values for exponent {group.exponent}"
            )
        self.F = F
        self.group = group
        self.roots = [F.primitive_root_of_unity(n) for n in group.orders]
        self.characters = [Character(c) for c in sorted(
            product(*[range(n) for n in group.orders]))]

    def value(self, chi: Character, g: tuple[int, ...]) -> int:
        out = 1
        for zeta, c, a, n in zip(self.roots, chi.exponents, g, self.group.orders):
            out = out * pow(zeta, (c * a) % n, self.F.p) % self.F.p
        return out

    def trivial(self) -> Character:
        return self.characters[0]

    def mul(self, a: Character, b: Character) -> Character:
        return Character(tuple((x + y) % n for x, y, n in
                               zip(a.exponents, b.exponents, self.group.orders)))

    def restriction_values(self, chi: Character, subgroup) -> tuple[int, ...]:
        """Value tuple of chi on the (sorted) subgroup; used to compare
        restrictions of characters to stabilizers."""
        return tuple(self.value(chi, h) for h in subgroup)

    def dual_group(self) -> AbelianGroup:
        """The character group as an abstract abelian group (same orders)."""
        return AbelianGroup(self.group.orders)


def character_group(F: PrimeField, group: AbelianGroup) -> CharacterGroup:
    return CharacterGroup(F, group)


# ---------------------------------------------------------------------------
# Quiver actions
# ---------------------------------------------------------------------------

class QuiverAction:
    """An action of an abelian group on a bound quiver algebra.

    Per generator: a vertex permutation (dict on vertex indices, identity
    where omitted) and an arrow map arrow index -> (scalar, arrow index).
    `__init__` extends the generator data to every group element; pass the
    action to `validate_action` before trusting orbits, characters or
    `entries`.
    """

    def __init__(self, algebra: BoundAlgebra, group: AbelianGroup,
                 vertex_perms: list[dict[int, int]],
                 arrow_maps: list[dict[int, tuple[int, int]]]):
        if len(vertex_perms) != len(group.orders) or len(arrow_maps) != len(group.orders):
            raise ValueError("need one vertex permutation and arrow map per generator")
        self.algebra = algebra
        self.group = group
        self.F = algebra.F
        q = algebra.quiver
        self.gen_vperm = []
        self.gen_amap = []
        for vp, am in zip(vertex_perms, arrow_maps):
            full_vp = {v: vp.get(v, v) for v in range(q.n_vertices)}
            if sorted(full_vp.values()) != list(range(q.n_vertices)):
                raise ValueError("vertex permutation is not a bijection")
            full_am = {}
            for a in range(q.n_arrows):
                c, b = am.get(a, (1, a))
                full_am[a] = (int(c) % self.F.p, b)
            self.gen_vperm.append(full_vp)
            self.gen_amap.append(full_am)
        self._element_maps: dict[tuple[int, ...], tuple[dict, dict]] = {}
        self._build_elements()

    # -- construction of the full-element action --------------------------

    def _compose(self, first, second):
        """Apply `first`, then `second` (both (vperm, amap) pairs)."""
        vp1, am1 = first
        vp2, am2 = second
        vp = {v: vp2[vp1[v]] for v in vp1}
        am = {}
        for a, (c1, b1) in am1.items():
            c2, b2 = am2[b1]
            am[a] = (c1 * c2 % self.F.p, b2)
        return vp, am

    def _build_elements(self):
        q = self.algebra.quiver
        ident = ({v: v for v in range(q.n_vertices)},
                 {a: (1, a) for a in range(q.n_arrows)})
        for g in self.group.elements:
            cur = ident
            for gi, vp, am in zip(g, self.gen_vperm, self.gen_amap):
                for _ in range(gi):
                    cur = self._compose(cur, (vp, am))
            self._element_maps[g] = cur

    # -- applying the action ----------------------------------------------

    def vertex(self, g, v: int) -> int:
        return self._element_maps[g][0][v]

    def arrow(self, g, a: int) -> tuple[int, int]:
        return self._element_maps[g][1][a]

    def path(self, g, w: PathWord) -> tuple[int, PathWord]:
        """Image of a path word: a scalar times another path word."""
        if w.is_trivial():
            return 1, PathWord(self.vertex(g, w.vertex))
        scal = 1
        arrows = []
        for a in w.arrows:
            c, b = self.arrow(g, a)
            scal = scal * c % self.F.p
            arrows.append(b)
        src = self.vertex(g, path_source(self.algebra.quiver, w))
        return scal, PathWord(src, tuple(arrows))

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every group element's automorphism of the normal-form basis as COO
        arrays (g, row, col, value), built on first use: g(b_col) has
        coefficient `value` at b_row, with g indexing `group.elements`."""
        A, p = self.algebra, self.F.p
        terms = []
        for gi, g in enumerate(self.group.elements):
            for k, w in enumerate(A.basis):
                c, gw = self.path(g, w)
                nf = A.nf.get(gw)
                if nf is None:
                    raise ValueError(f"action image leaves the path domain at basis {k}")
                for j, cj in nf.items():
                    terms += (gi, j, k, c * cj % p)
        return tuple(np.array(terms, dtype=np.int64).reshape(-1, 4).T)

    def matrix(self, g) -> np.ndarray:
        """Dense matrix of the algebra automorphism g on the normal-form
        basis, applied column by column on each call (for tests)."""
        return np.stack([self.apply(g, x) for x in self.F.eye(self.algebra.dim)], axis=1)

    def apply(self, g, x: np.ndarray) -> np.ndarray:
        gs, rows, cols, vals = self.entries
        sel = gs == self.group.eindex[g]
        out = np.zeros(self.algebra.dim, dtype=np.int64)
        np.add.at(out, rows[sel], vals[sel] * (x[cols[sel]] % self.F.p) % self.F.p)
        return out % self.F.p

    # -- orbit data ---------------------------------------------------------

    def vertex_orbit(self, v: int) -> list[int]:
        return sorted({self.vertex(g, v) for g in self.group.elements})

    def vertex_stabilizer(self, v: int) -> list[tuple[int, ...]]:
        return sorted(g for g in self.group.elements if self.vertex(g, v) == v)


@dataclass
class ValidationIssue:
    check: str
    witness: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue]

    @property
    def valid(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.valid:
            return "action valid"
        return "\n".join(f"FAIL {i.check}: {i.witness}" for i in self.issues)


def validate_action(algebra: BoundAlgebra, group: AbelianGroup,
                    action: QuiverAction) -> ValidationReport:
    """Check every invariant a usable action must satisfy.

    Failures are collected with witnesses rather than raised: generator
    orders and commutativity as algebra automorphisms, endpoint
    compatibility of arrow images, preservation of the relation ideal
    (g(r) = 0 in the bound algebra), multiplicativity of the induced basis
    matrices, and the trivial-or-full stabilizer condition.
    """
    F = algebra.F
    q = algebra.quiver
    issues: list[ValidationIssue] = []

    if group.n % F.p == 0:
        issues.append(ValidationIssue("p-coprime-to-n", f"p={F.p}, |G|={group.n}"))
    if (F.p - 1) % group.exponent != 0:
        issues.append(ValidationIssue(
            "characters-split", f"p={F.p} but exp(G)={group.exponent}"))

    # endpoints of arrow images
    for gi, (vp, am) in enumerate(zip(action.gen_vperm, action.gen_amap)):
        for a in range(q.n_arrows):
            c, b = am[a]
            if c == 0:
                issues.append(ValidationIssue(
                    "nonzero-scalar", f"generator {gi}: arrow {q.arrows[a].name}"))
            if (q.arrows[b].source != vp[q.arrows[a].source]
                    or q.arrows[b].target != vp[q.arrows[a].target]):
                issues.append(ValidationIssue(
                    "arrow-endpoints",
                    f"generator {gi}: {q.arrows[a].name} -> {q.arrows[b].name}"))
    if issues:
        return ValidationReport(issues)

    # generator orders and commutativity, on vertices and arrows with scalars
    for gi, n_i in enumerate(group.orders):
        cur = ({v: v for v in range(q.n_vertices)}, {a: (1, a) for a in range(q.n_arrows)})
        gen = (action.gen_vperm[gi], action.gen_amap[gi])
        for _ in range(n_i):
            cur = action._compose(cur, gen)
        if any(cur[0][v] != v for v in cur[0]) or any(cur[1][a] != (1, a) for a in cur[1]):
            issues.append(ValidationIssue("generator-order",
                                          f"generator {gi} does not have order {n_i}"))
    for i in range(len(group.orders)):
        for j in range(i + 1, len(group.orders)):
            a = (action.gen_vperm[i], action.gen_amap[i])
            b = (action.gen_vperm[j], action.gen_amap[j])
            if action._compose(a, b) != action._compose(b, a):
                issues.append(ValidationIssue("generators-commute", f"({i},{j})"))
    if issues:
        return ValidationReport(issues)

    # relation ideal preserved: image of each relation is 0 in the algebra
    for gi in range(len(group.orders)):
        g = tuple(1 % n if k == gi else 0 for k, n in enumerate(group.orders))
        for ridx, r in enumerate(algebra.relations):
            img = F.zeros(1, algebra.dim)[0]
            broken = False
            for c, w in r.terms:
                scal, gw = action.path(g, w)
                nf = algebra.nf.get(gw)
                if nf is None:
                    broken = True
                    break
                for k, ck in nf.items():
                    img[k] = (img[k] + c * scal * ck) % F.p
            if broken or np.any(img):
                issues.append(ValidationIssue(
                    "relations-preserved", f"generator {gi}, relation #{ridx}"))

    # multiplicativity of the induced basis automorphism, exhaustive over
    # group elements and basis pairs
    if not issues:
        witness = _first_non_multiplicative(algebra, group, action)
        if witness is not None:
            g, k1, k2 = witness
            issues.append(ValidationIssue(
                "automorphism-multiplicative", f"g={g}, basis ({k1},{k2})"))

    # trivial-or-full stabilizers (the standing assumption)
    for v in range(q.n_vertices):
        stab = action.vertex_stabilizer(v)
        if len(stab) not in (1, group.n):
            issues.append(ValidationIssue(
                "stabilizer-trivial-or-full",
                f"vertex {q.vertices[v]} has stabilizer of order {len(stab)}"))

    return ValidationReport(issues)


def _first_non_multiplicative(algebra: BoundAlgebra, group: AbelianGroup,
                              action: QuiverAction):
    """First (g, k1, k2), by group element and then basis pair, with
    g(b_k1 b_k2) != g(b_k1) g(b_k2); None if every g is multiplicative.

    With T[k1, k2, :] the product b_k1 b_k2, both sides are sparse tensors
    over (g, k1, k2, m), all g at once: M_g T and T(M_g (x) M_g).  Their
    difference is built term by term; its least nonzero key is the witness.
    """
    F, T, n = algebra.F, algebra.structure, algebra.dim
    gs, rows, cols, vals = action.entries
    # M_g T: T[k1, k2, k] M_g[m, k]
    e, f = match_pairs(T.K, cols)
    lhs_keys = ((gs[f] * n + T.I[e]) * n + T.J[e]) * n + rows[f]
    lhs_vals = T.C[e] * vals[f] % F.p
    # T(M_g (x) M_g): M_g[a, k1] M_g[b, k2] T[a, b, m], one g for both factors
    e, f = match_pairs(T.I, rows)
    e2, f2 = match_pairs(gs[f] * n + T.J[e], gs * n + rows)
    e, f = e[e2], f[e2]
    rhs_keys = ((gs[f] * n + cols[f]) * n + cols[f2]) * n + T.K[e]
    rhs_vals = T.C[e] * vals[f] % F.p * vals[f2] % F.p
    keys, _ = coalesce(F, np.concatenate([lhs_keys, rhs_keys]),
                       np.concatenate([lhs_vals, F.p - rhs_vals]))
    if not keys.size:
        return None
    gi, k1 = divmod(int(keys[0]) // n // n, n)
    return group.elements[gi], k1, int(keys[0]) // n % n


@dataclass
class OrbitData:
    """Vertex orbit decomposition for a validated action."""

    orbits: list[list[int]]                      # sorted orbits of vertex indices
    representatives: list[int]                   # least vertex per orbit (I~)
    stabilizers: dict[int, list[tuple[int, ...]]]  # per representative
    full_orbit_reps: list[int]                   # I~' (trivial stabilizer)
    fixed_reps: list[int]                        # I~'' (full stabilizer)


def orbits_stabilizers(action: QuiverAction) -> OrbitData:
    """Orbits, representatives, and the I~ = I~' | I~'' partition.

    Representatives are the lexicographically least vertex (by name) in each
    orbit; orbits are listed by their representative's name.
    """
    q = action.algebra.quiver
    seen = set()
    orbits = []
    for v in sorted(range(q.n_vertices), key=lambda i: q.vertices[i]):
        if v in seen:
            continue
        orb = action.vertex_orbit(v)
        seen.update(orb)
        orbits.append(sorted(orb, key=lambda i: q.vertices[i]))
    reps = [o[0] for o in orbits]
    stabs = {r: action.vertex_stabilizer(r) for r in reps}
    n = action.group.n
    full = [r for r in reps if len(stabs[r]) == 1 and n > 1]
    fixed = [r for r in reps if len(stabs[r]) == n or n == 1]
    return OrbitData(orbits, reps, stabs, full, fixed)


def arrow_character(action: QuiverAction, chars: CharacterGroup, a: int,
                    subgroup=None) -> Character:
    """The character chi_a of the joint stabilizer with g(a) = chi_a(g) a.

    `subgroup` defaults to the joint stabilizer of the arrow's endpoints.
    Raises if some stabilizer element moves the arrow off its scalar line,
    or if no global character restricts to the observed values.
    """
    q = action.algebra.quiver
    arr = q.arrows[a]
    if subgroup is None:
        s1 = set(action.vertex_stabilizer(arr.source))
        s2 = set(action.vertex_stabilizer(arr.target))
        subgroup = sorted(s1 & s2)
    values = []
    for g in subgroup:
        c, b = action.arrow(g, a)
        if b != a:
            raise ValueError(
                f"arrow {arr.name} is not an eigen-arrow for stabilizer element {g}")
        values.append(c)
    target = tuple(values)
    for chi in chars.characters:
        if chars.restriction_values(chi, subgroup) == target:
            return chi
    raise ValueError(f"no character matches scalars {target} on {subgroup}")
