"""Command-line front end: expansion, conversion, pairings, the Fock action,
module construction/decomposition, and the verification suites.

Exit codes: 0 success / all verified; 1 verification failure; 2 usage or
parse error; 3 a resource-limited case was skipped and --strict was set.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinat import Composition, ResourceLimitError
from .expressions import (
    ParseError,
    algebra_element_to_json,
    element_to_json,
    parse_element,
)
from .hecke_clifford import AlgebraElement
from .heisenberg import fock_action
from .hopf import ConversionError, FreeElement, MembershipError, convert, pairing, peak_pairing
from .verification import run_suite, suite_names

CASE_FAILED = 1
USAGE_ERROR = 2
STRICT_SKIP = 3


def _parse_alpha(text: str) -> Composition:
    """The composition written as comma-separated parts; "" is the empty
    composition, and an empty part ("2,,1" or "2,") is a usage error."""
    parts = text.split(",") if text else []
    if "" in parts:
        raise ValueError("--alpha %r has an empty part" % text)
    return Composition(tuple(int(x) for x in parts))


def _emit_element(x, fmt: str) -> str:
    if isinstance(x, AlgebraElement):
        return json.dumps(algebra_element_to_json(x), sort_keys=True) if fmt == "json" else str(x)
    if isinstance(x, FreeElement):
        return json.dumps(element_to_json(x), sort_keys=True) if fmt == "json" else str(x)
    return json.dumps(x, sort_keys=True, default=str) if fmt == "json" else str(x)


def _cmd_expand(args) -> int:
    x = parse_element(args.expr, rank=args.rank)
    if isinstance(x, FreeElement) and args.basis:
        x = convert(x, args.basis, args.algebra)
    elif args.basis and isinstance(x, AlgebraElement):
        raise ConversionError("algebra elements have a single normal form")
    print(_emit_element(x, args.format))
    return 0


def _cmd_pair(args) -> int:
    x = parse_element(args.left)
    y = parse_element(args.right)
    if not isinstance(x, FreeElement) or not isinstance(y, FreeElement):
        raise ConversionError("pairings want Hopf elements")
    if x.algebra == "Peak" and y.algebra == "PeakDual":
        val = peak_pairing(x, y)
    elif x.algebra == "Omega" and y.algebra == "Omega":
        from .hopf import omega_inner_product

        val = omega_inner_product(x, y)
    else:
        val = pairing(x, y)
    print(json.dumps({"value": str(val)}) if args.format == "json" else str(val))
    return 0


def _cmd_act(args) -> int:
    a = parse_element(args.operator)
    x = parse_element(args.state)
    out = fock_action(a, x)
    print(_emit_element(out, args.format))
    return 0


def _build_module(kind: str, alpha: Composition):
    from .supermodules import induce_clifford, projective_hecke, simple_hecke

    if kind == "simple":
        return simple_hecke(alpha)
    if kind == "projective":
        return projective_hecke(alpha)
    if kind == "induced-simple":
        return induce_clifford(simple_hecke(alpha))
    if kind == "induced-projective":
        return induce_clifford(projective_hecke(alpha))
    raise ValueError("unknown module kind %r" % kind)


def _cmd_module(args) -> int:
    from .characteristic import decompose_projective
    from .supermodules import RelationError, module_from_json, module_to_json

    if args.module_cmd == "decompose":
        alpha = _parse_alpha(args.alpha)
        entries = [
            {"peaks": sorted(P.elements), "n": P.n, "multiplicity": m}
            for P, m in decompose_projective(alpha)
        ]
        if args.format == "json":
            print(json.dumps({"alpha": list(alpha.parts), "summands": entries},
                             sort_keys=True))
        else:
            for e in entries:
                print("peaks %s multiplicity %d" % (e["peaks"], e["multiplicity"]))
        return 0
    if args.module_cmd == "dump":
        module = _build_module(args.kind, _parse_alpha(args.alpha))
        doc = module_to_json(module)
        text = json.dumps(doc, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text)
        return 0
    if args.module_cmd == "check":
        with open(args.file) as fh:
            module = module_from_json(json.load(fh))
        try:
            module.check()
        except RelationError as exc:  # a failed case, not a usage error
            print(json.dumps({"status": "failed", "dim": module.dim, "witness": str(exc)})
                  if args.format == "json" else "failed (dim %d): %s" % (module.dim, exc))
            return CASE_FAILED
        print(json.dumps({"status": "verified", "dim": module.dim})
              if args.format == "json" else "verified (dim %d)" % module.dim)
        return 0
    if args.module_cmd == "info":
        module = _build_module(args.kind, _parse_alpha(args.alpha))
        even, odd = module.graded_dims()
        info = {"dim": module.dim, "even": even, "odd": odd,
                "rank": module.rank, "algebra": module.algebra}
        print(json.dumps(info, sort_keys=True) if args.format == "json"
              else " ".join("%s=%s" % kv for kv in sorted(info.items())))
        return 0
    raise ValueError("unknown module subcommand")


def _cmd_verify(args) -> int:
    # a bound below 1 would verify nothing and still report success
    for flag, value in (("--max-n", args.max_n), ("--max-degree", args.max_degree)):
        if value is not None and value < 1:
            raise ValueError("%s must be at least 1, got %d" % (flag, value))
    reports = run_suite(args.suite, max_n=args.max_n, max_degree=args.max_degree)
    failed = sum(1 for r in reports if r["status"] == "failed")
    skipped = sum(1 for r in reports if r["status"] == "skipped-resource")
    if args.format == "json":
        print(json.dumps(reports, sort_keys=True, default=str))
    else:
        for r in reports:
            params = ",".join("%s=%s" % kv for kv in sorted(r["params"].items()))
            print("%-10s %s [%s]" % (r["status"].upper(), r["claim"], params))
        print("-- %d cases: %d failed, %d skipped" % (len(reports), failed, skipped))
    if failed:
        return CASE_FAILED
    if skipped and args.strict:
        return STRICT_SKIP
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakhc",
        description="exact peak-algebra and 0-Hecke-Clifford workbench",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = {"--format": dict(choices=("json", "text"), default="text")}

    p = sub.add_parser("expand", help="parse an element and print it")
    p.add_argument("expr")
    p.add_argument("--basis")
    p.add_argument("--algebra")
    p.add_argument("--rank", type=int)
    p.add_argument("--format", **common["--format"])
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("convert", help="change of basis (alias of expand)")
    p.add_argument("expr")
    p.add_argument("--basis", required=True)
    p.add_argument("--algebra")
    p.add_argument("--rank", type=int)
    p.add_argument("--format", **common["--format"])
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("pair", help="dual pairings")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--format", **common["--format"])
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("act", help="Fock action of a peak element")
    p.add_argument("operator")
    p.add_argument("state")
    p.add_argument("--format", **common["--format"])
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("module", help="module constructions")
    msub = p.add_subparsers(dest="module_cmd", required=True)
    md = msub.add_parser("decompose", help="indecomposable content of the induced projective")
    md.add_argument("--alpha", required=True)
    md.add_argument("--format", **common["--format"])
    md.set_defaults(func=_cmd_module)
    md = msub.add_parser("dump", help="serialize a module to JSON")
    md.add_argument("--kind", default="induced-simple",
                    choices=("simple", "projective", "induced-simple",
                             "induced-projective"))
    md.add_argument("--alpha", required=True)
    md.add_argument("--out")
    md.set_defaults(func=_cmd_module)
    md = msub.add_parser("check", help="reload a dumped module and verify relations")
    md.add_argument("file")
    md.add_argument("--format", **common["--format"])
    md.set_defaults(func=_cmd_module)
    md = msub.add_parser("info", help="dimensions of a named module")
    md.add_argument("--kind", default="induced-simple",
                    choices=("simple", "projective", "induced-simple",
                             "induced-projective"))
    md.add_argument("--alpha", required=True)
    md.add_argument("--format", **common["--format"])
    md.set_defaults(func=_cmd_module)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--max-degree", type=int, dest="max_degree")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--format", **common["--format"])
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConversionError, MembershipError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return STRICT_SKIP if getattr(args, "strict", False) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
