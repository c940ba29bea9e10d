"""The skew group algebra Lambda*G, its distinguished idempotents, the
quiver Q_G of the basic form e(Lambda G)e, and the extracted presentation
with computed relations.

The non-basic algebra lives on the basis {path x group element}; the basic
form is cut out by the idempotents e_{(i0, rho)} = i0 (x) e_rho indexed by
orbit representatives and characters of their stabilizers.  Arrows of Q_G
are realized by explicit elements of the skew algebra, one of four shapes
depending on which endpoints lie in full orbits.  Relations of Q_G are not
transcribed from anywhere: they are the kernel of the evaluation map
K Q_G -> e(Lambda G)e, minimalized, and they and the bound algebra of Q_G
come from one degree walk: `BoundAlgebra.generated` asks at each degree
for the kernel vectors outside the ideal the lower degrees generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (StructureConstants, coalesce, in_row_space,
                    match_pairs, nullspace_basis, rank, row_space)
from .quiver import (BoundAlgebra, PathWord, Quiver, RelationElement,
                     make_path)
from .action import (AbelianGroup, Character, QuiverAction, arrow_character,
                     character_group, orbits_stabilizers, validate_action)


class SkewAlgebra:
    """Lambda (x) KG with multiplication (l (x) g)(m (x) h) = l g(m) (x) gh.

    Elements are vectors over the basis {(algebra basis k, group g)} flattened
    as k * |G| + index(g).  The product is built once, as the sparse table
    `structure`, from Lambda's table and the action's entries.
    """

    def __init__(self, algebra: BoundAlgebra, group: AbelianGroup, action: QuiverAction):
        self.algebra = algebra
        self.group = group
        self.action = action
        self.F = algebra.F
        T, p, n = algebra.structure, self.F.p, group.n
        self.dim = algebra.dim * n
        gs, rows, cols, vals = action.entries
        gh = np.array([[group.eindex[group.mul(g, h)] for h in group.elements]
                       for g in group.elements], dtype=np.int64)
        # (b_i (x) g)(b_j (x) h) = sum_m M_g[m, j] b_i b_m (x) gh: pair
        # each entry e of Lambda's table with each action entry f at row m
        e, f = match_pairs(T.J, rows)
        self.structure = StructureConstants.from_coo(
            self.F, self.dim,
            np.repeat(T.I[e] * n + gs[f], n),
            (cols[f, None] * n + np.arange(n)).reshape(-1),
            (T.K[e, None] * n + gh[gs[f]]).reshape(-1),
            np.repeat(T.C[e] * vals[f] % p, n),
            self.include(T.one))

    def include(self, x: np.ndarray) -> np.ndarray:
        """Lambda -> Lambda G, l -> l (x) 1."""
        return self.group_element(x, self.group.identity())

    def group_element(self, x: np.ndarray, g) -> np.ndarray:
        """l (x) g for l in Lambda."""
        v = self.F.zeros(self.algebra.dim, self.group.n)
        v[:, self.group.eindex[g]] = x % self.F.p
        return v.reshape(-1)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.structure.multiply(x, y)


# ---------------------------------------------------------------------------
# The skew context: idempotents, kappa, R, D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QGVertex:
    """A vertex (i0, rho) of Q_G: an orbit representative plus a character
    of its stabilizer (trivial character for full-orbit representatives)."""

    rep: int
    char: Character

    def name(self, quiver: Quiver) -> str:
        return f"{quiver.vertices[self.rep]}_{self.char.label()}"


class SkewContext:
    """Everything needed to build Q_G: orbits, stabilizer characters, the
    orthogonal idempotents e_{(i0, rho)}, kappa, and the R/D choices."""

    def __init__(self, algebra: BoundAlgebra, group: AbelianGroup, action: QuiverAction):
        report = validate_action(algebra, group, action)
        if not report.valid:
            raise ValueError(f"invalid action:\n{report}")
        self.algebra = algebra
        self.group = group
        self.action = action
        self.F = algebra.F
        self.skew = SkewAlgebra(algebra, group, action)
        self.chars = character_group(algebra.F, group)
        self.orbit_data = orbits_stabilizers(action)

        q = algebra.quiver
        od = self.orbit_data
        self.kappa: dict[int, tuple[int, ...]] = {}
        for orbit, rep in zip(od.orbits, od.representatives):
            for v in orbit:
                # least group element carrying v to the representative
                self.kappa[v] = min(g for g in group.elements
                                    if action.vertex(g, v) == rep)

        # stabilizer characters per representative: all of G-hat for fixed
        # vertices, only the trivial character for free-orbit vertices
        self.stab_chars: dict[int, list[Character]] = {}
        for rep in od.representatives:
            if rep in od.fixed_reps:
                self.stab_chars[rep] = list(self.chars.characters)
            else:
                self.stab_chars[rep] = [self.chars.trivial()]

        self.vertices: list[QGVertex] = []
        for rep in od.representatives:
            for chi in self.stab_chars[rep]:
                self.vertices.append(QGVertex(rep, chi))
        self.vqindex = {v: i for i, v in enumerate(self.vertices)}

        self.idempotents = {v: self._idempotent(v) for v in self.vertices}
        self.e_bar = self.F.zeros(1, self.skew.dim)[0]
        for e in self.idempotents.values():
            self.e_bar = self.F.add(self.e_bar, e)
        self._check_idempotents()

    def _idempotent(self, v: QGVertex) -> np.ndarray:
        """e_{(i0, rho)} = i0 (x) e_rho with e_rho = (1/|G_{i0}|) sum rho(g) g."""
        F, G = self.F, self.group
        stab = self.action.vertex_stabilizer(v.rep)
        out = F.zeros(self.algebra.dim, G.n)
        out[self.algebra.bindex[PathWord(v.rep)], [G.eindex[g] for g in stab]] = [
            F.inv(len(stab)) * self.chars.value(v.char, g) % F.p for g in stab]
        return out.reshape(-1)

    def _check_idempotents(self):
        S, F, p = self.skew, self.F, self.F.p
        names, n, m = list(self.idempotents), S.dim, len(self.idempotents)
        E = np.stack(list(self.idempotents.values())) % p
        # e_a e_b - delta_ab e_b over (a, b, k), from the terms of y -> e_a y
        a, rows, cols, vals = S.structure.mult_entries(E, left=True)
        b, idx = np.nonzero(E)
        e, f = match_pairs(cols, idx)
        keys, _ = coalesce(F, np.concatenate([
            (a[e] * m + b[f]) * n + rows[e], (b * m + b) * n + idx]),
            np.concatenate([vals[e] * E[b[f], idx[f]] % p, p - E[b, idx]]))
        a, b = divmod(keys // n, m)
        if np.any(a == b):
            raise AssertionError(f"idempotent at {names[a[a == b].min()]} fails e^2 = e")
        if keys.size:
            lo, hi = divmod(int(np.min(np.minimum(a, b) * m + np.maximum(a, b))), m)
            raise AssertionError(f"idempotents at {names[lo]}, {names[hi]} not orthogonal")
        if not np.array_equal(S.multiply(self.e_bar, self.e_bar), self.e_bar):
            raise AssertionError("e-bar is not idempotent")
        for rep in self.orbit_data.fixed_reps:
            tot = self.F.zeros(1, S.dim)[0]
            for chi in self.stab_chars[rep]:
                tot = self.F.add(tot, self.idempotents[QGVertex(rep, chi)])
            expected = S.include(self.algebra.idempotent(rep))
            if not np.array_equal(tot, expected):
                raise AssertionError(
                    f"character idempotents at rep {rep} do not sum to i0 (x) 1")

    # -- choice data --------------------------------------------------------

    def is_full_orbit(self, rep: int) -> bool:
        return rep in self.orbit_data.full_orbit_reps

    def rep_of_vertex(self, v: int) -> int:
        return self.action.vertex(self.kappa[v], v)

    def r_set(self, i0: int, j0: int) -> list[int]:
        """R_{i0 j0}: representatives of the orbit of i0 under G_{j0},
        lexicographically least by vertex name."""
        stab_j = self.action.vertex_stabilizer(j0)
        orbit = self.orbit_data.orbits[self.orbit_data.representatives.index(i0)]
        q = self.algebra.quiver
        seen = set()
        reps = []
        for v in sorted(orbit, key=lambda x: q.vertices[x]):
            if v in seen:
                continue
            seen.update(self.action.vertex(g, v) for g in stab_j)
            reps.append(v)
        return reps

    def basic_dim(self) -> int:
        """dim e(Lambda G)e: rank of x -> e x e on the skew algebra, the
        product L_e R_e of the two multiplication maps composed term by
        term from the sparse table, ranked on its nonzero rows and columns."""
        T, F, n = self.skew.structure, self.F, self.skew.dim
        lrow, lcol, lval = T.mult_entries(self.e_bar, left=True)
        rrow, rcol, rval = T.mult_entries(self.e_bar, left=False)
        e, f = match_pairs(lcol, rrow)
        keys, vals = coalesce(F, lrow[e] * n + rcol[f], lval[e] * rval[f])
        rows, ri = np.unique(keys // n, return_inverse=True)
        cols, ci = np.unique(keys % n, return_inverse=True)
        M = F.zeros(rows.size, cols.size)
        M[ri, ci] = vals
        return rank(F, M)


# ---------------------------------------------------------------------------
# Arrows of Q_G and the presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QGArrow:
    """An arrow of Q_G with its realizing-element data.

    `case` is 1..4 per the endpoint pattern (full/full, full/fixed,
    fixed/full, fixed/fixed); `lam_arrow` is the representative arrow of
    Lambda realizing it; `twist` is the group element g^t (case 1 only,
    identity otherwise).
    """

    name: str
    source: QGVertex
    target: QGVertex
    case: int
    lam_arrow: int
    twist: tuple[int, ...]


class SkewPresentation:
    """Q_G together with realizing elements, computed relations, and the
    bound algebra of the basic form."""

    def __init__(self, context: SkewContext, length_bound: int | None = None):
        self.context = context
        self.F = context.F
        self.length_bound = (context.algebra.length_bound if length_bound is None
                             else length_bound)
        self.arrows: list[QGArrow] = []
        self.elements: dict[str, np.ndarray] = {}
        self._build_arrows()
        self._build_quiver()
        self._build_algebra()

    # -- arrow construction -------------------------------------------------

    def _case_of(self, i0: int, j0: int) -> int:
        ctx = self.context
        src_full, tgt_full = ctx.is_full_orbit(i0), ctx.is_full_orbit(j0)
        if src_full and tgt_full:
            return 1
        if src_full:
            return 2
        if tgt_full:
            return 3
        return 4

    def _build_arrows(self):
        ctx = self.context
        chars, F = ctx.chars, ctx.F
        od, q = ctx.orbit_data, ctx.algebra.quiver
        # one pass over Lambda's arrows: those into each representative j0,
        # keyed by (i0, j0) with i0 the representative of the source's orbit
        order = {r: k for k, r in enumerate(od.representatives)}
        into: dict[tuple[int, int], list[int]] = {}
        for a, arr in enumerate(q.arrows):
            if arr.target in order:
                into.setdefault((ctx.rep_of_vertex(arr.source), arr.target), []).append(a)
        counter = 0
        for i0, j0 in sorted(into, key=lambda ij: (order[ij[0]], order[ij[1]])):
            joint = sorted(set(od.stabilizers[i0]) & set(od.stabilizers[j0]))
            case = self._case_of(i0, j0)
            rset = set(ctx.r_set(i0, j0))
            for a in into[i0, j0]:
                if q.arrows[a].source not in rset:  # D(i0, j0): sources in R_{i0 j0}
                    continue
                chi_a = arrow_character(ctx.action, chars, a, subgroup=joint)
                for rho in ctx.stab_chars[i0]:
                    for sigma in ctx.stab_chars[j0]:
                        lhs = chars.restriction_values(rho, joint)
                        rhs = tuple(
                            chars.value(sigma, h) * chars.value(chi_a, h) % F.p
                            for h in joint)
                        if lhs != rhs:
                            continue
                        arrow, elem = self._realize(i0, j0, case, a, rho, sigma, counter)
                        self.arrows.append(arrow)
                        self.elements[arrow.name] = elem
                        counter += 1
        # e_t x e_s = x for every realizing element x of an arrow s -> t
        T, n = ctx.skew.structure, ctx.skew.dim
        X = np.array([self.elements[ar.name] for ar in self.arrows]).reshape(-1, n)
        E = np.stack([ctx.idempotents[v] for v in ctx.vertices])
        ends = np.array([[ctx.vqindex[ar.source], ctx.vqindex[ar.target]]
                         for ar in self.arrows], dtype=np.int64).reshape(-1, 2)
        self._left_terms = T.mult_entries(X, left=True)
        trunc = _apply_terms(T.mult_entries(E, left=True), ends[:, 1], _apply_terms(
            self._left_terms, np.arange(len(X)), E[ends[:, 0]], F.p), F.p)
        bad = np.flatnonzero(~X.any(axis=1) | (trunc != X).any(axis=1))
        if bad.size:
            ar = self.arrows[bad[0]]
            raise AssertionError(f"realizing element not supported at "
                                 f"({ar.source}, {ar.target}), case {ar.case}")

    def _case1_twist(self, i0: int, a: int) -> tuple[int, ...]:
        ctx = self.context
        q = ctx.algebra.quiver
        src = q.arrows[a].source
        return min(g for g in ctx.group.elements if ctx.action.vertex(g, i0) == src)

    def _realize(self, i0, j0, case, a, rho, sigma, counter):
        ctx = self.context
        F, G, A = ctx.F, ctx.group, ctx.algebra
        q = A.quiver
        k = A.bindex[make_path(q, (a,))]
        twist = G.identity()
        elem = F.zeros(A.dim, G.n)
        if case == 1:
            twist = self._case1_twist(i0, a)
            elem[k, G.eindex[twist]] = 1
        elif case == 2:
            # (1 (x) e_sigma)(a (x) 1) = (1/n) sum_h sigma(h) h(a) (x) h
            coef = np.array([F.inv(G.n) * ctx.chars.value(sigma, h) % F.p
                             for h in G.elements])
            gs, rows, cols, vals = ctx.action.entries
            at = cols == k
            np.add.at(elem, (rows[at], gs[at]), vals[at] * coef[gs[at]])
        else:
            # cases 3 and 4: a (x) e_rho
            stab = ctx.action.vertex_stabilizer(i0)
            elem[k, [G.eindex[h] for h in stab]] = [
                F.inv(len(stab)) * ctx.chars.value(rho, h) % F.p for h in stab]
        elem = elem.reshape(-1) % F.p
        name = f"x{counter}_{q.arrows[a].name}"
        return QGArrow(name, QGVertex(i0, rho), QGVertex(j0, sigma), case, a, twist), elem

    def _build_quiver(self):
        ctx = self.context
        q = ctx.algebra.quiver
        names = [v.name(q) for v in ctx.vertices]
        self.qg = Quiver(names, [
            (ar.name, ar.source.name(q), ar.target.name(q)) for ar in self.arrows
        ])

    # -- relations and the bound algebra --------------------------------------

    def _build_algebra(self):
        """Q_G's bound algebra, its relations found by the algebra's own
        degree walk as the kernel of K Q_G -> e(Lambda G)e.

        At degree d each path evaluates to (arrow element)(value of its
        prefix), for all paths in one batched product.  The new relations are
        the kernel vectors outside the span of the ideal the lower degrees
        generate, kept in nullspace order.
        """
        ctx = self.context
        F = self.F
        values = {PathWord(v): ctx.idempotents[u] for v, u in enumerate(ctx.vertices)}

        def relations(paths, closure):
            nonlocal values
            prefix = np.stack([values[PathWord(w.vertex, w.arrows[1:])] for w in paths])
            E = _apply_terms(self._left_terms, np.array([w.arrows[0] for w in paths]),
                             prefix, F.p)
            values = dict(zip(paths, E))
            span = row_space(F, closure)
            new = []
            # the kernel on the coordinates where some path's value is nonzero
            for vec in nullspace_basis(F, E.T[np.any(E, axis=0)]):
                if in_row_space(F, span, vec):
                    continue
                new.append(RelationElement(tuple(
                    (int(vec[i]), paths[int(i)]) for i in np.nonzero(vec % F.p)[0])))
                span = row_space(F, np.concatenate([span, vec.reshape(1, -1)]))
            return new

        self.algebra = BoundAlgebra.generated(F, self.qg, relations, self.length_bound)
        self.relation_gens = self.algebra.relations
        self.basic_dim = ctx.basic_dim()
        if self.algebra.dim != self.basic_dim:
            raise AssertionError(
                f"bound algebra of Q_G has dim {self.algebra.dim}, "
                f"expected dim e(LG)e = {self.basic_dim}")

    # -- dual group action ----------------------------------------------------

    def dual_group_action(self) -> tuple[AbelianGroup, QuiverAction]:
        """The G-hat action chi.(l (x) g) = chi(g) l (x) g, expressed on the
        computed presentation of the basic algebra.

        Character generators permute the Q_G vertices by twisting the
        character coordinate and send each arrow to a scalar multiple of an
        arrow; the scalars are read off the realizing elements and verified.
        """
        if hasattr(self, "_dual_cache"):
            return self._dual_cache
        ctx = self.context
        F, G, chars = self.F, ctx.group, ctx.chars
        dual = chars.dual_group()

        def normalized(X):
            """Rows of X divided by their first nonzero entries, and those."""
            lead = X[np.arange(len(X)), np.argmax(X != 0, axis=1)]
            inv = np.array([F.inv(int(c)) for c in lead], dtype=np.int64)
            return X * inv[:, None] % F.p, lead

        # two elements are scalar multiples when their normalized rows agree
        X = np.array([self.elements[ar.name] for ar in self.arrows]).reshape(
            -1, ctx.skew.dim) % F.p
        rows, lead = normalized(X)
        first = {row.tobytes(): aj for aj, row in reversed(list(enumerate(rows)))}
        vperm_list, amap_list = [], []
        for gen in dual.generators():
            chi = Character(gen)
            vperm = {}
            for i, v in enumerate(ctx.vertices):
                if ctx.is_full_orbit(v.rep):
                    vperm[i] = i
                else:
                    vperm[i] = ctx.vqindex[QGVertex(v.rep, chars.mul(v.char, chi))]
            # coordinate i of an element lies over group element i mod |G|
            weights = np.tile([chars.value(chi, g) for g in G.elements], ctx.algebra.dim)
            amap = {}
            for ai, (row, c) in enumerate(zip(*normalized(X * weights % F.p))):
                aj = first.get(row.tobytes())
                if aj is None:
                    raise AssertionError(
                        f"dual action does not permute arrows at {self.arrows[ai].name}")
                amap[ai] = (int(c) * F.inv(int(lead[aj])) % F.p, aj)
            vperm_list.append(vperm)
            amap_list.append(amap)
        action = QuiverAction(self.algebra, dual, vperm_list, amap_list)
        report = validate_action(self.algebra, dual, action)
        if not report.valid:
            raise AssertionError(f"dual action invalid:\n{report}")
        self._dual_cache = (dual, action)
        return self._dual_cache


def _apply_terms(terms, which: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Row i is x_{which[i]} Y[i], given the left `mult_entries` of a stack
    of x and reduced rows Y: one gather and one reduceat for all rows."""
    owner, rows, cols, vals = terms
    i, t = match_pairs(which, owner)
    keys = i * Y.shape[1] + rows[t]
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    out = np.zeros_like(Y)
    out.reshape(-1)[keys[heads]] = np.add.reduceat(Y[i, cols[t]] * vals[t] % p, heads) % p
    return out


def build_presentation(algebra: BoundAlgebra, group: AbelianGroup,
                       action: QuiverAction,
                       length_bound: int | None = None) -> SkewPresentation:
    return SkewPresentation(SkewContext(algebra, group, action), length_bound)
