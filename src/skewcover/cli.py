"""Command-line interface: parse an input file, run one verification
command, and print a deterministic report (text or JSON).

Exit codes: 0 success, 2 property-check failure, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .action import validate_action
from .quiver import is_gentle, is_skew_gentle
from .inputfmt import build_input, parse_input, serialize_presentation
from .skew import build_presentation
from .rep import decompose, hom_basis
from .ar import ar_quiver_dot, category_rank, knit_ar_quiver
from .pushdown import CoveringTable, pushdown_module
from .transport import pushdown_sequences
from .isosearch import find_algebra_isomorphism, roots_of_unity


class PropertyFailure(Exception):
    pass


def _load(path: str, build_algebra: bool = True, bound: int | None = None):
    with open(path) as fh:
        doc = parse_input(fh.read())
    return doc, build_input(doc, length_bound=bound, build_algebra=build_algebra)


def _presentation(built, bound: int | None):
    return build_presentation(built.algebra, built.group, built.action,
                              length_bound=bound)


def _valid_action(built):
    """The input's action when `validate_action` accepts it, else None: a
    knit given the action builds one almost split sequence per orbit."""
    if built.action is None or not validate_action(
            built.algebra, built.group, built.action).valid:
        return None
    return built.action


def _report(args, command: str, digest: str, results: dict) -> None:
    payload = {"command": command, "input": digest, "results": results}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"command: {command}")
        print(f"input digest: {digest}")
        _print_tree(results, indent=0)


def _print_tree(obj, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _print_tree(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_tree(v, indent)
            else:
                print(f"{pad}- {_fmt(v)}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _fmt(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def cmd_skew(args):
    doc, built = _load(args.file, bound=args.bound)
    pres = _presentation(built, args.bound)
    text = serialize_presentation(pres)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    results = {
        "vertices": pres.qg.n_vertices,
        "arrows": pres.qg.n_arrows,
        "basic_dim": pres.basic_dim,
        "skew_dim": built.algebra.dim * built.group.n,
        "presentation": text.splitlines(),
    }
    _report(args, "skew", built.digest, results)
    return 0


def cmd_pushdown(args):
    doc, built = _load(args.file, bound=args.bound)
    if args.module not in built.modules:
        raise ValueError(f"module {args.module!r} not in input file")
    pres = _presentation(built, args.bound)
    M = built.modules[args.module]
    res = pushdown_module(pres, M)
    matrices = {}
    for i, ar in enumerate(pres.arrows):
        matrices[ar.name] = res.rep.maps[i].tolist()
    parts = decompose(res.rep)
    results = {
        "module": args.module,
        "dims": {pres.qg.vertices[i]: d for i, d in enumerate(res.rep.dims)},
        "fibers": res.fibers,
        "matrices": matrices,
        "summand_dims": [list(s.rep.dims) for s in parts],
    }
    _report(args, "pushdown", built.digest, results)
    return 0


def cmd_hom(args):
    doc, built = _load(args.file, bound=args.bound)
    for name in (args.M, args.N):
        if name not in built.modules:
            raise ValueError(f"module {name!r} not in input file")
    H = hom_basis(built.modules[args.M], built.modules[args.N])
    _report(args, "hom", built.digest,
            {"M": args.M, "N": args.N, "dim": H.dimension})
    return 0


def cmd_verify_covering(args):
    doc, built = _load(args.file, bound=args.bound)
    pres = _presentation(built, args.bound)
    if args.all_indecomposables:
        mods = knit_ar_quiver(built.algebra, action=pres.context.action).modules
        names = [f"ind{i}" for i in range(len(mods))]
    else:
        names = sorted(built.modules)
        mods = [built.modules[n] for n in names]
    table = CoveringTable(pres, mods)
    reports = [(mn, nn, table.report(i, j)) for i, mn in enumerate(names)
               for j, nn in enumerate(names)]
    records = [{"M": mn, "N": nn, "case": r.case, "lhs": r.lhs_dim,
                "rhs": r.rhs_dim, "match": r.matches} for mn, nn, r in reports]
    ok = all(r.matches for _, _, r in reports)
    _report(args, "verify-covering", built.digest,
            {"pairs": len(records), "all_match": ok, "records": records})
    if not ok:
        raise PropertyFailure("semicovering dimension identity failed")
    return 0


def cmd_ar_quiver(args):
    doc, built = _load(args.file, bound=args.bound)
    arq = knit_ar_quiver(built.algebra, action=_valid_action(built))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(ar_quiver_dot(arq) + "\n")
    results = {
        "indecomposables": len(arq.modules),
        "arrows": sum(arq.arrows.values()),
        "vertices": [{"dims": list(m.dims), "label": m.label(),
                      "projective": arq.projective_flags[i],
                      "injective": arq.injective_flags[i]}
                     for i, m in enumerate(arq.modules)],
        "arrow_list": [{"from": i, "to": j, "mult": mult}
                       for (i, j), mult in sorted(arq.arrows.items())],
    }
    _report(args, "ar-quiver", built.digest, results)
    return 0


def cmd_rank(args):
    doc, built = _load(args.file, bound=args.bound)
    arq = knit_ar_quiver(built.algebra, action=_valid_action(built))
    r, s = category_rank(arq)
    _report(args, "rank", built.digest,
            {"rank": str(r), "stable_rank": str(s),
             "indecomposables": len(arq.modules)})
    return 0


def cmd_transport_ars(args):
    doc, built = _load(args.file, bound=args.bound)
    pres = _presentation(built, args.bound)
    arq = knit_ar_quiver(built.algebra, action=pres.context.action)
    arq_skew = knit_ar_quiver(pres.algebra, action=pres.dual_group_action()[1])
    records = []
    for t, out in pushdown_sequences(pres, arq, arq_skew).items():
        records.append({
            "right_term": arq.modules[t].label(),
            "stabilizer_order": out.stabilizer_order,
            "form": "single" if out.single else
            ("glued" if out.gluing else "disjoint"),
            "pieces": len(out.sequences),
            "gluing_dims": [list(z.dims) for z in out.gluing],
        })
    _report(args, "transport-ars", built.digest,
            {"sequences": len(records), "records": records})
    return 0


def cmd_check_gentle(args):
    doc, built = _load(args.file, build_algebra=False)
    special = built.special_loops
    if args.special:
        special = [s.strip() for s in args.special.split(",") if s.strip()]
    g_ok, g_viol = is_gentle(built.quiver, built.relations)
    s_ok, s_viol = is_skew_gentle(built.quiver, built.relations, special,
                                  p=built.field.p)
    _report(args, "check-gentle", built.digest, {
        "gentle": g_ok,
        "gentle_violations": [f"{v.clause}: {v.witness}" for v in g_viol],
        "special_loops": special,
        "skew_gentle": s_ok,
        "skew_gentle_violations": [f"{v.clause}: {v.witness}" for v in s_viol],
    })
    return 0


def cmd_double_skew(args):
    doc, built = _load(args.file, bound=args.bound)
    pres = _presentation(built, args.bound)
    text = serialize_presentation(pres)
    doc2 = parse_input(text)
    built2 = build_input(doc2, length_bound=args.bound)
    pres2 = _presentation(built2, args.bound)
    pool = roots_of_unity(built.field, built.group.exponent)
    if built.field.p - 1 not in pool:
        pool = sorted(set(pool) | {built.field.p - 1})
    iso = find_algebra_isomorphism(pres2.algebra, built.algebra, pool)
    results = {
        "original_dim": built.algebra.dim,
        "double_skew_dim": pres2.algebra.dim,
        "quiver_isomorphic": iso is not None,
    }
    if iso is not None:
        vmap, amap, scal = iso
        results["vertex_map"] = {
            pres2.qg.vertices[v]: built.quiver.vertices[w]
            for v, w in sorted(vmap.items())}
        results["arrow_map"] = {
            pres2.qg.arrows[a].name:
            (f"{scal[a]}*" if scal[a] != 1 else "") + built.quiver.arrows[b].name
            for a, b in sorted(amap.items())}
    _report(args, "double-skew", built.digest, results)
    if iso is None:
        raise PropertyFailure("double skew is not isomorphic to the original")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later
    ones: `parse_args` keeps no state, and building it costs about a
    millisecond, a large share of a short command."""
    ap = argparse.ArgumentParser(
        prog="skewcover",
        description="skew group algebras of bound quiver algebras and their "
                    "module categories over prime fields")
    ap.add_argument("--json", action="store_true", help="JSON report output")
    ap.add_argument("--bound", type=int, default=None,
                    help="path length bound for algebra construction")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("skew", help="emit the basic skew presentation")
    sp.add_argument("file")
    sp.add_argument("--out", help="write the presentation to a file")
    sp.set_defaults(func=cmd_skew)

    sp = sub.add_parser("pushdown", help="push a bundled module down")
    sp.add_argument("file")
    sp.add_argument("--module", required=True)
    sp.set_defaults(func=cmd_pushdown)

    sp = sub.add_parser("hom", help="hom-space dimension between bundled modules")
    sp.add_argument("file")
    sp.add_argument("M")
    sp.add_argument("N")
    sp.set_defaults(func=cmd_hom)

    sp = sub.add_parser("verify-covering",
                        help="check the covering Hom identities")
    sp.add_argument("file")
    sp.add_argument("--all-indecomposables", action="store_true")
    sp.set_defaults(func=cmd_verify_covering)

    sp = sub.add_parser("ar-quiver", help="knit the AR quiver")
    sp.add_argument("file")
    sp.add_argument("--dot", help="write DOT output to a file")
    sp.set_defaults(func=cmd_ar_quiver)

    sp = sub.add_parser("rank", help="rank and stable rank of the module category")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("transport-ars",
                        help="push every AR sequence to the skew side")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_transport_ars)

    sp = sub.add_parser("check-gentle", help="gentle / skew-gentle recognizers")
    sp.add_argument("file")
    sp.add_argument("--special", help="comma-separated special loops")
    sp.set_defaults(func=cmd_check_gentle)

    sp = sub.add_parser("double-skew",
                        help="skew twice and compare with the original")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_double_skew)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PropertyFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
