"""The skew group algebra Lambda*G, its distinguished idempotents, the
quiver Q_G of the basic form e(Lambda G)e, and the extracted presentation
with computed relations.

The non-basic algebra lives on the basis {path x group element}; the basic
form is cut out by the idempotents e_{(i0, rho)} = i0 (x) e_rho indexed by
orbit representatives and characters of their stabilizers.  Arrows of Q_G
are realized by explicit elements of the skew algebra, one of four shapes
depending on which endpoints lie in full orbits.  Relations of Q_G are not
transcribed from anywhere: they are computed degree by degree as the kernel
of the evaluation map K Q_G -> e(Lambda G)e, then minimalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (PrimeField, in_row_space, nullspace_basis, rank,
                    row_space)
from .quiver import (BoundAlgebra, NotAdmissibleError, PathWord, Quiver,
                     RelationElement, ideal_closure, make_path, path_source,
                     path_target)
from .action import (AbelianGroup, Character, CharacterGroup,
                     QuiverAction, arrow_character, character_group,
                     orbits_stabilizers, validate_action)


class SkewAlgebra:
    """Lambda (x) KG with multiplication (l (x) g)(m (x) h) = l g(m) (x) gh.

    Elements are vectors over the basis {(algebra basis k, group g)} flattened
    as k * |G| + index(g).
    """

    def __init__(self, algebra: BoundAlgebra, group: AbelianGroup, action: QuiverAction):
        self.algebra = algebra
        self.group = group
        self.action = action
        self.F = algebra.F
        self.dim = algebra.dim * group.n
        # index(g) x index(h) -> index(gh)
        self._gmul = [[group.eindex[group.mul(g, h)] for h in group.elements]
                      for g in group.elements]

    def include(self, x: np.ndarray) -> np.ndarray:
        """Lambda -> Lambda G, l -> l (x) 1."""
        return self.group_element(x, self.group.identity())

    def group_element(self, x: np.ndarray, g) -> np.ndarray:
        """l (x) g for l in Lambda."""
        v = self.F.zeros(self.algebra.dim, self.group.n)
        v[:, self.group.eindex[g]] = x % self.F.p
        return v.reshape(-1)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(sum_g x_g (x) g)(sum_h y_h (x) h) = sum x_g g(y_h) (x) gh: one
        algebra product per pair of nonzero group columns."""
        F, G, A = self.F, self.group, self.algebra
        X = (x % F.p).reshape(A.dim, G.n)
        Y = (y % F.p).reshape(A.dim, G.n)
        out = F.zeros(A.dim, G.n)
        ys = [h for h in range(G.n) if Y[:, h].any()]
        for g in range(G.n):
            if not X[:, g].any():
                continue
            gY = F.mul(self.action.matrix(G.elements[g]), Y[:, ys])
            for col, h in enumerate(ys):
                gh = self._gmul[g][h]
                out[:, gh] = (out[:, gh] + A.multiply(X[:, g], gY[:, col])) % F.p
        return out.reshape(-1)

    def element_str(self, x: np.ndarray) -> str:
        F, G, A = self.F, self.group, self.algebra
        terms = []
        for i in np.nonzero(x % F.p)[0]:
            k, gi = divmod(int(i), G.n)
            c = int(x[i] % F.p)
            s = f"({A.element_str(A.unit_vector(A.basis[k]))})(x){G.elements[gi]}"
            terms.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(terms) if terms else "0"


def skew_multiply(S: SkewAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return S.multiply(x, y)


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
        F = self.F
        stab = self.action.vertex_stabilizer(v.rep)
        coef = F.inv(len(stab))
        out = F.zeros(1, self.skew.dim)[0]
        base = self.algebra.idempotent(v.rep)
        for g in stab:
            c = coef * self.chars.value(v.char, g) % F.p
            out = F.add(out, F.smul(c, self.skew.group_element(base, g)))
        return out

    def _check_idempotents(self):
        S = self.skew
        items = list(self.idempotents.items())
        for v1, e1 in items:
            if not np.array_equal(S.multiply(e1, e1), e1):
                raise AssertionError(f"idempotent at {v1} fails e^2 = e")
        for i, (v1, e1) in enumerate(items):
            for v2, e2 in items[i + 1:]:
                if np.any(S.multiply(e1, e2)) or np.any(S.multiply(e2, e1)):
                    raise AssertionError(f"idempotents at {v1}, {v2} not orthogonal")
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

    def d_set(self, i0: int, j0: int) -> list[int]:
        """D(i0, j0): arrows from R_{i0 j0}-vertices into j0, in declaration order."""
        q = self.algebra.quiver
        rset = set(self.r_set(i0, j0))
        return [a for a in range(q.n_arrows)
                if q.arrows[a].target == j0 and q.arrows[a].source in rset]

    def basic_dim(self) -> int:
        """dim e(Lambda G)e: rank of x -> e x e on the skew algebra."""
        S, F = self.skew, self.F
        cols = []
        for i in range(S.dim):
            v = F.zeros(1, S.dim)[0]
            v[i] = 1
            cols.append(S.multiply(self.e_bar, S.multiply(v, self.e_bar)))
        return rank(F, np.stack(cols, axis=1))


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
        self.length_bound = length_bound or context.algebra.length_bound
        self.arrows: list[QGArrow] = []
        self.elements: dict[str, np.ndarray] = {}
        # per Lambda-arrow: (case, D-representative arrow, twist) of its orbit
        self.orbit_arrow_data: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        self._build_arrows()
        self._build_quiver()
        self._compute_relations()
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
        od = ctx.orbit_data
        counter = 0
        for i0 in od.representatives:
            for j0 in od.representatives:
                stab_i = ctx.action.vertex_stabilizer(i0)
                stab_j = ctx.action.vertex_stabilizer(j0)
                joint = sorted(set(stab_i) & set(stab_j))
                case = self._case_of(i0, j0)
                for a in ctx.d_set(i0, j0):
                    chi_a = arrow_character(ctx.action, chars, a, subgroup=joint)
                    for b in ctx.action.arrow_orbit(a):
                        self.orbit_arrow_data[b] = (case, a, self._case1_twist(i0, a))
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

    def _case1_twist(self, i0: int, a: int) -> tuple[int, ...]:
        ctx = self.context
        q = ctx.algebra.quiver
        src = q.arrows[a].source
        return min(g for g in ctx.group.elements if ctx.action.vertex(g, i0) == src)

    def _arrow_vec(self, a: int) -> np.ndarray:
        A = self.context.algebra
        return A.unit_vector(A.basis[A.bindex[make_path(A.quiver, (a,))]])

    def _realize(self, i0, j0, case, a, rho, sigma, counter):
        ctx = self.context
        S, F, G = ctx.skew, ctx.F, ctx.group
        q = ctx.algebra.quiver
        avec = self._arrow_vec(a)
        ident = G.identity()
        twist = ident
        if case == 1:
            twist = self._case1_twist(i0, a)
            elem = S.group_element(avec, twist)
        elif case == 2:
            # (1 (x) e_sigma)(a (x) 1) = (1/n) sum_h sigma(h) h(a) (x) h
            elem = F.zeros(1, S.dim)[0]
            coef = F.inv(G.n)
            for h in G.elements:
                c = coef * ctx.chars.value(sigma, h) % F.p
                elem = F.add(elem, F.smul(c, S.group_element(ctx.action.apply(h, avec), h)))
        else:
            # cases 3 and 4: a (x) e_rho
            elem = F.zeros(1, S.dim)[0]
            stab = ctx.action.vertex_stabilizer(i0)
            coef = F.inv(len(stab))
            for h in stab:
                c = coef * ctx.chars.value(rho, h) % F.p
                elem = F.add(elem, F.smul(c, S.group_element(avec, h)))

        src = QGVertex(i0, rho)
        tgt = QGVertex(j0, sigma)
        trunc = S.multiply(ctx.idempotents[tgt], S.multiply(elem, ctx.idempotents[src]))
        if not np.any(elem) or not np.array_equal(trunc % F.p, elem % F.p):
            raise AssertionError(
                f"realizing element not supported at ({src}, {tgt}), case {case}")
        name = f"x{counter}_{q.arrows[a].name}"
        return QGArrow(name, src, tgt, case, a, twist), elem

    def _build_quiver(self):
        ctx = self.context
        q = ctx.algebra.quiver
        names = [v.name(q) for v in ctx.vertices]
        self.qg = Quiver(names, [
            (ar.name, ar.source.name(q), ar.target.name(q)) for ar in self.arrows
        ])

    # -- relations ----------------------------------------------------------

    def _compute_relations(self):
        """Kernel of K Q_G -> e(Lambda G)e degree by degree.

        K_d = degree-d kernel; new relation generators are an echelon
        complement of span(arrows * K_{d-1} + K_{d-1} * arrows) inside K_d.
        Stops at the first degree where every path evaluates to zero.
        """
        ctx = self.context
        F, qg, S = self.F, self.qg, ctx.skew
        N = self.length_bound

        target_dim = ctx.basic_dim()
        image_dim = len(ctx.vertices)

        paths_prev = [PathWord(v) for v in range(qg.n_vertices)]
        eval_prev = {PathWord(v): ctx.idempotents[ctx.vertices[v]]
                     for v in range(qg.n_vertices)}
        kernel_prev: list[dict[PathWord, int]] = []
        self.relation_gens: list[RelationElement] = []

        for d in range(1, N + 1):
            paths_d: list[PathWord] = []
            pindex: dict[PathWord, int] = {}
            eval_d: dict[PathWord, np.ndarray] = {}
            for w in paths_prev:
                for ai in qg.arrows_from(path_target(qg, w)):
                    nw = PathWord(path_source(qg, w), (ai,) + w.arrows)
                    pindex[nw] = len(paths_d)
                    paths_d.append(nw)
                    eval_d[nw] = S.multiply(self.elements[self.arrows[ai].name],
                                            eval_prev[w])
            if not paths_d:
                self.qg_nilpotency = d
                break

            # ideal component generated by lower-degree kernels
            closure = ideal_closure(F, qg, kernel_prev)
            C = F.zeros(len(closure), len(paths_d))
            for i, x in enumerate(closure):
                for w, c in x.items():
                    C[i, pindex[w]] = c
            Crow = row_space(F, C) if len(closure) else F.zeros(0, len(paths_d))

            E = np.stack([eval_d[w] for w in paths_d], axis=0) % F.p
            ker = nullspace_basis(F, E.T)

            for r in range(ker.shape[0]):
                vec = ker[r]
                if Crow.shape[0] and in_row_space(F, Crow, vec):
                    continue
                if not Crow.shape[0] and not np.any(vec):
                    continue
                terms = tuple((int(vec[i]), paths_d[int(i)])
                              for i in np.nonzero(vec % F.p)[0])
                self.relation_gens.append(RelationElement(terms))
                Crow = (row_space(F, np.concatenate([Crow, vec.reshape(1, -1)]))
                        if Crow.shape[0] else vec.reshape(1, -1).copy())

            image_dim += len(paths_d) - ker.shape[0]
            kernel_prev = [
                {paths_d[i]: int(ker[r, i]) for i in range(len(paths_d)) if ker[r, i]}
                for r in range(ker.shape[0])
            ]
            paths_prev = paths_d
            eval_prev = eval_d
            if not any(np.any(v % F.p) for v in eval_d.values()):
                self.qg_nilpotency = d
                break
        else:
            raise NotAdmissibleError(
                f"Q_G paths of length {N} still evaluate nonzero; raise the bound")

        if image_dim != target_dim:
            raise AssertionError(
                f"presentation image dim {image_dim} != dim e(LG)e {target_dim}")
        self.basic_dim = target_dim

    def _build_algebra(self):
        self.algebra = BoundAlgebra(self.F, self.qg, self.relation_gens,
                                    self.length_bound)
        if self.algebra.dim != self.basic_dim:
            raise AssertionError(
                f"bound algebra of Q_G has dim {self.algebra.dim}, "
                f"expected {self.basic_dim}")

    # -- the semicovering F on the original quiver ---------------------------

    def functor_F_vertex(self, v: int) -> np.ndarray:
        """F(v) = e-bar_{i0} for the representative i0 of v's orbit."""
        ctx = self.context
        rep = ctx.rep_of_vertex(v)
        out = ctx.F.zeros(1, ctx.skew.dim)[0]
        for chi in ctx.stab_chars[rep]:
            out = ctx.F.add(out, ctx.idempotents[QGVertex(rep, chi)])
        return out

    def functor_F_arrow(self, a: int) -> np.ndarray:
        """F(a): the canonical element of e(LG)e attached to a's orbit.

        Stable under the group action by construction: F(g a) = F(a).
        """
        ctx = self.context
        S = ctx.skew
        case, rep_arrow, twist = self.orbit_arrow_data[a]
        elem = S.group_element(self._arrow_vec(rep_arrow),
                               twist if case == 1 else ctx.group.identity())
        return S.multiply(ctx.e_bar, S.multiply(elem, ctx.e_bar))

    def arrow_space_dim(self, i: int, j: int) -> int:
        """dim Lambda_1 G (F(i), F(j)): count of Q_G arrows between fibers."""
        ctx = self.context
        ri, rj = ctx.rep_of_vertex(i), ctx.rep_of_vertex(j)
        return sum(1 for ar in self.arrows
                   if ar.source.rep == ri and ar.target.rep == rj)

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
        vperm_list, amap_list = [], []
        for gen in dual.generators():
            chi = Character(gen)
            vperm = {}
            for i, v in enumerate(ctx.vertices):
                if ctx.is_full_orbit(v.rep):
                    vperm[i] = i
                else:
                    vperm[i] = ctx.vqindex[QGVertex(v.rep, chars.mul(v.char, chi))]
            amap = {}
            for ai, ar in enumerate(self.arrows):
                twisted = self._apply_char(chi, self.elements[ar.name])
                hit = None
                for aj, ar2 in enumerate(self.arrows):
                    c = _scalar_multiple(F, twisted, self.elements[ar2.name])
                    if c is not None:
                        hit = (c, aj)
                        break
                if hit is None:
                    raise AssertionError(
                        f"dual action does not permute arrows at {ar.name}")
                amap[ai] = hit
            vperm_list.append(vperm)
            amap_list.append(amap)
        action = QuiverAction(self.algebra, dual, vperm_list, amap_list)
        report = validate_action(self.algebra, dual, action)
        if not report.valid:
            raise AssertionError(f"dual action invalid:\n{report}")
        self._dual_cache = (dual, action)
        return self._dual_cache

    def _apply_char(self, chi: Character, x: np.ndarray) -> np.ndarray:
        ctx = self.context
        F, G = self.F, ctx.group
        out = x.copy() % F.p
        for i in np.nonzero(out)[0]:
            _, gi = divmod(int(i), G.n)
            out[i] = out[i] * ctx.chars.value(chi, G.elements[gi]) % F.p
        return out


def _scalar_multiple(F: PrimeField, x: np.ndarray, y: np.ndarray):
    """c with x = c*y (c != 0), or None."""
    nx, ny = np.nonzero(x % F.p)[0], np.nonzero(y % F.p)[0]
    if len(nx) == 0 or len(nx) != len(ny) or not np.array_equal(nx, ny):
        return None
    c = int(x[nx[0]]) * F.inv(int(y[nx[0]])) % F.p
    return c if np.array_equal((c * y) % F.p, x % F.p) else None


def build_context(algebra: BoundAlgebra, group: AbelianGroup,
                  action: QuiverAction) -> SkewContext:
    return SkewContext(algebra, group, action)


def build_presentation(algebra: BoundAlgebra, group: AbelianGroup,
                       action: QuiverAction,
                       length_bound: int | None = None) -> SkewPresentation:
    return SkewPresentation(SkewContext(algebra, group, action), length_bound)
