"""The line-oriented input format for algebras with group actions.

    field p = 1009
    vertex 1
    arrow a: 1 -> 2
    relation 1*a.b + -1*c.d
    group Z2 x Z2
    action g1: vertex 3 -> 4
    action g1: arrow c -> 1*d
    special f
    module M {
      dim 1 = 1
      map a = [[1]]
    }

Paths are dotted arrow names in functional order (rightmost applied
first).  Group generators are named g1, g2, ... matching the declared
cyclic factors.  Omitted action rules default to fixing the vertex or
arrow.  The same format is emitted by the skew construction (with the dual
action), so skew output can be re-ingested.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field as dc_field

from .field import PrimeField
from .quiver import BoundAlgebra, Quiver, RelationElement, make_path
from .action import AbelianGroup, QuiverAction
from .rep import Representation
from .skew import SkewPresentation


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ModuleSpec:
    name: str
    dims: dict[str, int] = dc_field(default_factory=dict)
    maps: dict[str, list] = dc_field(default_factory=dict)


@dataclass
class InputDocument:
    prime: int | None = None
    length_bound: int = 12
    vertices: list[str] = dc_field(default_factory=list)
    arrows: list[tuple[str, str, str]] = dc_field(default_factory=list)
    relations: list[list[tuple[int, list[str]]]] = dc_field(default_factory=list)
    group_orders: tuple[int, ...] = ()
    action_vertex: dict[str, dict[str, str]] = dc_field(default_factory=dict)
    action_arrow: dict[str, dict[str, tuple[int, str]]] = dc_field(default_factory=dict)
    special_loops: list[str] = dc_field(default_factory=list)
    modules: dict[str, ModuleSpec] = dc_field(default_factory=dict)
    digest: str = ""


_ARROW_RE = re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_ACTION_V_RE = re.compile(r"^action\s+(\S+)\s*:\s*vertex\s+(\S+)\s*->\s*(\S+)$")
_ACTION_A_RE = re.compile(r"^action\s+(\S+)\s*:\s*arrow\s+(\S+)\s*->\s*(.+)$")
_DIM_RE = re.compile(r"^dim\s+(\S+)\s*=\s*(-?\d+)$")
_MAP_RE = re.compile(r"^map\s+(\S+)\s*=\s*(.+)$")


def _set_once(table: dict, key, value, line_no: int, what: str):
    """table[key] = value, refusing a second declaration of `what`: a
    repeated line would otherwise silently replace the first."""
    if key in table:
        raise ParseError(line_no, f"{what} is declared twice")
    table[key] = value


def parse_input(text: str) -> InputDocument:
    doc = InputDocument()
    doc.digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    cur_module: ModuleSpec | None = None
    module_line = 0
    single: dict[str, int] = {}  # field, bound, group: the line declaring each
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if cur_module is not None:
            if line == "}":
                doc.modules[cur_module.name] = cur_module
                cur_module = None
                continue
            m = _DIM_RE.match(line)
            if m:
                if int(m.group(2)) < 0:
                    raise ParseError(line_no, f"module {cur_module.name!r}: "
                                              f"negative dimension at {m.group(1)!r}")
                _set_once(cur_module.dims, m.group(1), int(m.group(2)), line_no,
                          f"module {cur_module.name!r}: dim {m.group(1)!r}")
                continue
            m = _MAP_RE.match(line)
            if m:
                try:
                    rows = ast.literal_eval(m.group(2))
                except (ValueError, SyntaxError, TypeError) as exc:
                    raise ParseError(line_no, f"bad matrix literal: {exc}")
                if not (isinstance(rows, list) and all(
                        isinstance(r, list) and all(type(x) is int for x in r)
                        for r in rows)):
                    raise ParseError(line_no, "a matrix is a list of rows of integers")
                if len({len(r) for r in rows}) > 1:
                    raise ParseError(line_no, f"module {cur_module.name!r}: map "
                                              f"{m.group(1)!r} has rows of unequal length")
                _set_once(cur_module.maps, m.group(1), rows, line_no,
                          f"module {cur_module.name!r}: map {m.group(1)!r}")
                continue
            raise ParseError(line_no, f"unrecognized module line: {line!r}")

        head = line.split(None, 1)[0]
        if head in ("field", "bound", "group"):
            _set_once(single, head, line_no, line_no, head)
        if head == "field":
            m = re.match(r"^field\s+p\s*=\s*(\d+)$", line)
            if not m:
                raise ParseError(line_no, "expected 'field p = <int>'")
            doc.prime = int(m.group(1))
        elif head == "bound":
            m = re.match(r"^bound\s+N\s*=\s*(\d+)$", line)
            if not m:
                raise ParseError(line_no, "expected 'bound N = <int>'")
            doc.length_bound = int(m.group(1))
            if doc.length_bound < 1:
                raise ParseError(line_no, f"length bound {doc.length_bound} is below 1")
        elif head == "vertex":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'vertex <name>'")
            doc.vertices.append(parts[1])
        elif head == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise ParseError(line_no, "expected 'arrow <name>: <v> -> <w>'")
            doc.arrows.append((m.group(1), m.group(2), m.group(3)))
        elif head == "relation":
            body = line[len("relation"):].strip()
            terms = []
            for termtxt in body.split("+"):
                termtxt = termtxt.strip()
                if not termtxt:
                    raise ParseError(line_no, "empty relation term")
                if "*" in termtxt:
                    ctxt, ptxt = termtxt.split("*", 1)
                    try:
                        coeff = int(ctxt.strip())
                    except ValueError:
                        raise ParseError(line_no, f"bad coefficient {ctxt!r}")
                else:
                    coeff, ptxt = 1, termtxt
                path = [a.strip() for a in ptxt.strip().split(".")]
                if not all(path):
                    raise ParseError(line_no, f"bad path {ptxt!r}")
                terms.append((coeff, path))
            doc.relations.append(terms)
        elif head == "group":
            body = line[len("group"):].strip()
            orders = []
            for part in body.split("x"):
                part = part.strip()
                if not re.match(r"^Z\d+$", part):
                    raise ParseError(line_no, f"expected Z<n>, got {part!r}")
                orders.append(int(part[1:]))
            doc.group_orders = tuple(orders)
        elif head == "action":
            m = _ACTION_V_RE.match(line)
            if m:
                _set_once(doc.action_vertex.setdefault(m.group(1), {}), m.group(2),
                          m.group(3), line_no, f"action {m.group(1)} on vertex {m.group(2)!r}")
                continue
            m = _ACTION_A_RE.match(line)
            if m:
                rhs = m.group(3).strip()
                if "*" in rhs:
                    ctxt, name = rhs.split("*", 1)
                    try:
                        scal = int(ctxt.strip())
                    except ValueError:
                        raise ParseError(line_no, f"bad scalar {ctxt!r}")
                    name = name.strip()
                else:
                    scal, name = 1, rhs
                _set_once(doc.action_arrow.setdefault(m.group(1), {}), m.group(2),
                          (scal, name), line_no, f"action {m.group(1)} on arrow {m.group(2)!r}")
                continue
            raise ParseError(line_no, "bad action line")
        elif head == "special":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'special <loop>'")
            doc.special_loops.append(parts[1])
        elif head == "module":
            m = re.match(r"^module\s+(\S+)\s*\{$", line)
            if not m:
                raise ParseError(line_no, "expected 'module <name> {'")
            if m.group(1) in doc.modules:
                raise ParseError(line_no, f"module {m.group(1)!r} is declared twice")
            cur_module = ModuleSpec(m.group(1))
            module_line = line_no
        else:
            raise ParseError(line_no, f"unrecognized directive {head!r}")
    if cur_module is not None:
        raise ParseError(module_line, f"unterminated module block {cur_module.name!r}")
    if not doc.vertices:
        raise ParseError(0, "no quiver block (no vertices declared)")
    return doc


@dataclass
class BuiltInput:
    field: PrimeField
    quiver: Quiver
    relations: list[RelationElement]
    algebra: BoundAlgebra | None
    group: AbelianGroup
    action: QuiverAction | None
    modules: dict[str, Representation]
    special_loops: list[str]
    digest: str


def build_input(doc: InputDocument, length_bound: int | None = None,
                build_algebra: bool = True) -> BuiltInput:
    """Materialize a parsed document.

    The default prime is the least prime >= 1009 congruent to 1 modulo the
    group exponent (so all characters split).  Algebra construction may be
    skipped for recognizer-only inputs with inhomogeneous relations.
    """
    bound = doc.length_bound if length_bound is None else length_bound
    if bound < 1:
        raise ValueError(f"length bound {bound} is below 1")
    group = AbelianGroup(doc.group_orders or (1,))
    F = (PrimeField(doc.prime) if doc.prime
         else PrimeField.for_group(group.exponent))
    if (F.p - 1) % group.exponent != 0:
        raise ValueError(f"field prime {F.p} is not 1 mod exp(G) = {group.exponent}")
    generators = [f"g{i + 1}" for i in range(len(group.orders))]
    for gname in [*doc.action_vertex, *doc.action_arrow]:
        if gname not in generators:
            raise ValueError(f"action names undeclared generator {gname!r}")
    quiver = Quiver(doc.vertices, doc.arrows)
    relations = []
    for terms in doc.relations:
        rterms = []
        for coeff, names in terms:
            idxs = []
            for nm in names:
                if nm not in quiver.aindex:
                    raise ValueError(f"relation uses unknown arrow {nm!r}")
                idxs.append(quiver.aindex[nm])
            rterms.append((coeff % F.p, make_path(quiver, tuple(idxs))))
        relations.append(RelationElement(tuple(rterms)))

    algebra = None
    action = None
    if build_algebra:
        algebra = BoundAlgebra(F, quiver, relations, bound)
        vperms, amaps = [], []
        for gname in generators:
            vp = {}
            for v, w in doc.action_vertex.get(gname, {}).items():
                if v not in quiver.vindex or w not in quiver.vindex:
                    raise ValueError(f"action on unknown vertex in {gname}")
                vp[quiver.vindex[v]] = quiver.vindex[w]
            am = {}
            for a, (scal, b) in doc.action_arrow.get(gname, {}).items():
                if a not in quiver.aindex or b not in quiver.aindex:
                    raise ValueError(f"action on unknown arrow in {gname}")
                am[quiver.aindex[a]] = (scal % F.p, quiver.aindex[b])
            vperms.append(vp)
            amaps.append(am)
        action = QuiverAction(algebra, group, vperms, amaps)

    modules = {}
    if algebra is not None:
        for name, spec in doc.modules.items():
            for kind, names, declared in (("vertex", spec.dims, quiver.vindex),
                                          ("arrow", spec.maps, quiver.aindex)):
                for nm in names:
                    if nm not in declared:
                        raise ValueError(f"module {name!r} names undeclared {kind} {nm!r}")
            dims = [spec.dims.get(v, 0) for v in quiver.vertices]
            maps = []
            for a in quiver.arrows:
                rows = spec.maps.get(a.name)
                maps.append(None if rows is None else
                            F.mat([[x % F.p for x in r] for r in rows]))
            modules[name] = Representation(algebra, dims, maps)
    return BuiltInput(F, quiver, relations, algebra, group, action, modules,
                      list(doc.special_loops), doc.digest)


# ---------------------------------------------------------------------------
# Serialization of skew output
# ---------------------------------------------------------------------------

def serialize_presentation(pres: SkewPresentation) -> str:
    """Emit the basic presentation in the input format, with the dual group
    action, so the output can be skewed again."""
    ctx = pres.context
    qg = pres.qg
    lines = [f"field p = {pres.F.p}"]
    for v in qg.vertices:
        lines.append(f"vertex {v}")
    for a in qg.arrows:
        lines.append(f"arrow {a.name}: {qg.vertices[a.source]} -> {qg.vertices[a.target]}")
    for r in pres.relation_gens:
        terms = []
        for c, w in r.terms:
            pathtxt = ".".join(qg.arrows[i].name for i in w.arrows)
            terms.append(f"{int(c)}*{pathtxt}")
        lines.append("relation " + " + ".join(terms))
    lines.append("group " + " x ".join(f"Z{n}" for n in ctx.group.orders))
    dual, dact = pres.dual_group_action()
    for gi in range(len(dual.orders)):
        vp = dact.gen_vperm[gi]
        for v in sorted(vp):
            if vp[v] != v:
                lines.append(f"action g{gi + 1}: vertex {qg.vertices[v]} "
                             f"-> {qg.vertices[vp[v]]}")
        am = dact.gen_amap[gi]
        for a in sorted(am):
            c, b = am[a]
            if (c, b) != (1, a):
                lines.append(f"action g{gi + 1}: arrow {qg.arrows[a].name} "
                             f"-> {int(c)}*{qg.arrows[b].name}")
    return "\n".join(lines) + "\n"
