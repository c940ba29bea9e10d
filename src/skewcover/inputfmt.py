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
first).  A matrix is a bracketed list of bracketed rows of optionally
signed decimal integers, separated by commas, with whitespace allowed
around each bracket, comma and integer.  Group generators are named g1,
g2, ... matching the declared cyclic factors.  Omitted action rules
default to fixing the vertex or arrow.  The same format is emitted by the skew construction (with the dual
action), so skew output can be re-ingested.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field as dc_field

from .field import PrimeField
from .quiver import (BoundAlgebra, Quiver, RelationElement, check_relation,
                     make_path)
from .action import AbelianGroup, QuiverAction
from .rep import RelationError, Representation
from .skew import SkewPresentation


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ModuleSpec:
    name: str
    line: int = 0                     # the line of `module <name> {`
    dims: dict[str, int] = dc_field(default_factory=dict)
    maps: dict[str, list] = dc_field(default_factory=dict)
    map_lines: dict[str, int] = dc_field(default_factory=dict)


@dataclass
class InputDocument:
    prime: int | None = None
    length_bound: int = 12
    vertices: list[str] = dc_field(default_factory=list)
    arrows: list[tuple[str, str, str]] = dc_field(default_factory=list)
    relations: list[list[tuple[int, list[str]]]] = dc_field(default_factory=list)
    relation_lines: list[tuple[int, str]] = dc_field(default_factory=list)  # (line, text)
    field_line: int = 0
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
_INT = r"[+-]?\d+"
_ROW = rf"\[\s*(?:{_INT}\s*(?:,\s*{_INT}\s*)*)?\]"
_MATRIX_RE = re.compile(rf"\[\s*(?:{_ROW}\s*(?:,\s*{_ROW}\s*)*)?\]")
_ROWS_RE = re.compile(r"\[([^\[\]]*)\]")


def matrix_literal(text: str) -> list[list[int]] | None:
    """The rows of a matrix literal, or None when `text` is not one: the
    whole of it must match the grammar, so no evaluator is needed."""
    if not _MATRIX_RE.fullmatch(text):
        return None
    return [[int(x) for x in row.split(",")] if row.strip() else []
            for row in _ROWS_RE.findall(text[1:-1])]


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
                what = f"module {cur_module.name!r}: map {m.group(1)!r}"
                rows = matrix_literal(m.group(2))
                if rows is None:
                    raise ParseError(line_no, f"{what} is not a matrix: a list of "
                                              f"rows of integers, as [[1, 0], [0, -1]]")
                if len({len(r) for r in rows}) > 1:
                    raise ParseError(line_no, f"{what} has rows of unequal length")
                _set_once(cur_module.maps, m.group(1), rows, line_no, what)
                cur_module.map_lines[m.group(1)] = line_no
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
            doc.field_line = line_no
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
            if parts[1] in doc.vertices:
                raise ParseError(line_no, f"vertex {parts[1]!r} is declared twice")
            doc.vertices.append(parts[1])
        elif head == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise ParseError(line_no, "expected 'arrow <name>: <v> -> <w>'")
            if any(a == m.group(1) for a, _, _ in doc.arrows):
                raise ParseError(line_no, f"arrow {m.group(1)!r} is declared twice")
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
            doc.relation_lines.append((line_no, body))
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
            cur_module = ModuleSpec(m.group(1), line_no)
        else:
            raise ParseError(line_no, f"unrecognized directive {head!r}")
    if cur_module is not None:
        raise ParseError(cur_module.line, f"unterminated module block {cur_module.name!r}")
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
    try:
        F = (PrimeField(doc.prime) if doc.prime
             else PrimeField.for_group(group.exponent))
    except ValueError as exc:
        raise ParseError(doc.field_line, str(exc)) from None
    if (F.p - 1) % group.exponent != 0:
        raise ValueError(f"field prime {F.p} is not 1 mod exp(G) = {group.exponent}")
    generators = [f"g{i + 1}" for i in range(len(group.orders))]
    for gname in [*doc.action_vertex, *doc.action_arrow]:
        if gname not in generators:
            raise ValueError(f"action names undeclared generator {gname!r}")
    quiver = Quiver(doc.vertices, doc.arrows)
    relations = []
    for terms, (line_no, text) in zip(doc.relations, doc.relation_lines):
        try:
            rterms = []
            for coeff, names in terms:
                idxs = []
                for nm in names:
                    if nm not in quiver.aindex:
                        raise ValueError(f"relation uses unknown arrow {nm!r}")
                    idxs.append(quiver.aindex[nm])
                rterms.append((coeff % F.p, make_path(quiver, tuple(idxs))))
            relations.append(RelationElement(tuple(rterms)))
            if build_algebra:
                check_relation(quiver, relations[-1])
        except ValueError as exc:
            raise ParseError(line_no, f"relation {text!r}: {exc}") from None

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
                if rows is not None:
                    shape = (len(rows), len(rows[0]) if rows else 0)
                    want = (dims[a.target], dims[a.source])
                    if shape != want:
                        raise ParseError(spec.map_lines[a.name], f"module {name!r}: map "
                                         f"{a.name!r} has shape {shape}, want {want}")
                    rows = F.mat([[x % F.p for x in r] for r in rows]).reshape(want)
                maps.append(rows)
            try:
                modules[name] = Representation(algebra, dims, maps)
            except RelationError as exc:
                broken = ", ".join(f"{doc.relation_lines[i][1]!r} (line "
                                   f"{doc.relation_lines[i][0]})" for i in exc.indices)
                raise ParseError(spec.line, f"module {name!r} violates "
                                            f"relation {broken}") from None
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
