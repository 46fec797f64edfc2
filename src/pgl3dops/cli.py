"""Command-line front end: batch verification, certification, exploration.

Subcommands:

* ``verify {all|cdv|vectorfields|d0|twists|casimir|cases|conics}`` runs the
  registered identity suites and prints one transcript line per check;
* ``certify --lambda L1 L2`` builds and re-validates a generation
  certificate for a concrete weight;
* ``concordance`` prints the formula-by-formula comparison against the
  reference display;
* ``op {print|apply|compose}`` parses operator text and exposes the engine.

Exit codes: 0 when nothing failed (mismatch-reported items are informational
and always listed), 1 when at least one check failed or a certificate left
unreachable points, 2 on usage errors, among them a ``--json`` path that
cannot be written, which is refused before any work.  JSON reports carry a
schema_version field and never include wall times, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import certify as CERT
from . import checks as CK
from . import conics as CON
from . import pgl3 as P
from .ring import ParseError, ZeroDenominator, parse_ratfunc
from .weyl import op_apply, op_compose, parse_operator

CHARTS = {
    "matrix": P.MATRIX,
    "bminusb": P.BMINUSB,
    "big_cell": P.BIG,
    "ratio": P.RATIO,
    "conic": CON.CONIC,
    "conic_entry": CON.ENTRY,
    "conic_cone": CON.CONE,
}


def _unwritable(path: str) -> str | None:
    """Why a report cannot be written to path, or None if it can."""
    if not path:
        return "it is empty"
    if os.path.isdir(path):
        return "it is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"the directory {folder} does not exist"
    if not os.access(folder, os.W_OK) or \
            (os.path.exists(path) and not os.access(path, os.W_OK)):
        return "permission denied"
    return None


def _write_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_verify(args) -> int:
    cfg = CK.CheckConfig(grid=args.grid, seed=args.seed)
    results = CK.run_suite(args.suite, cfg, jobs=args.jobs)
    print(CK.transcript(results))
    _write_json(args.json, CK.report_json(checks=results))
    return 1 if any(r.status == "fail" for r in results) else 0


def _cmd_certify(args) -> int:
    report = CERT.certify((args.lam[0], args.lam[1]))
    problems = CERT.validate_certificate(report)
    print(_certificate_transcript(report, problems))
    report["checker_problems"] = problems
    _write_json(args.json, CK.report_json(certificates=[report]))
    return 1 if problems or report["status"] == "unreachable" else 0


def _certificate_transcript(report: dict, problems: list[str]) -> str:
    lines = [f"lambda = {tuple(report['lambda'])}: {report['status']}, "
             f"module dimension {report['module_dimension']}"]
    if report["status"] == "zero_module":
        lines.append("empty dominant support: the section space is zero")
    else:
        lines.append(f"support ({len(report['support'])} points): " + ", ".join(
            "m=({m1}, {m2}) nu=({nu1},{nu2})".format(**p)
            for p in report["support"]))
        lines.append(f"basepoint m={tuple(report['basepoint'])}")
        lines += [f"  case {e['case']}: {tuple(e['from'])} -> "
                  f"{tuple(e['to'])}  scalar "
                  f"{Fraction(e['scalar_num'], e['scalar_den'])}  "
                  f"[{e['closed_form']}]" for e in report["edges"]]
        if report["unreachable"]:
            lines.append(f"UNREACHABLE points: "
                         f"{[tuple(pt) for pt in report['unreachable']]} "
                         "(this would contradict the irreducibility claim)")
    lines.append("checker: " + ("ok" if not problems else "; ".join(problems)))
    return "\n".join(lines)


def _cmd_concordance(args) -> int:
    items = CK.concordance_items()
    width = max(len(i["id"]) for i in items)
    for item in items:
        print(f"[{item['status']:>8}] {item['id']:<{width}}")
        if item["status"] == "mismatch":
            print(f"{'':11}reference: {item['reference']}")
            print(f"{'':11}engine:    {item['engine']}")
            print(f"{'':11}residual:  {item['residual']}")
    matched = sum(1 for i in items if i["status"] == "matched")
    print(f"{matched} of {len(items)} displayed formulas matched; "
          f"{len(items) - matched} mismatches reported")
    _write_json(args.json, CK.report_json(concordance=items))
    return 0


def _cmd_op(args) -> int:
    chart = CHARTS[args.chart]
    try:
        a = parse_operator(args.expr[0], chart)
        if args.action == "print":
            out = a
        elif args.action == "compose":
            out = op_compose(a, parse_operator(args.expr[1], chart))
        else:
            out = op_apply(a, parse_ratfunc(args.expr[1], chart.table))
    except (ParseError, ZeroDenominator, OverflowError) as exc:
        print(f"op {args.action}: {exc}", file=sys.stderr)
        return 2
    print(out.to_text())
    return 0


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgl3dops",
        description="exact verification engine for global twisted differential "
                    "operators on the compactified PGL3")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a registered identity suite")
    ver.add_argument("suite", choices=["all"] + CK.suite_names())
    ver.add_argument("--grid", type=_int_at_least(0), default=4,
                     help="sampling range for grid checks (default 4)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="worker processes for independent checks")
    ver.add_argument("--json", metavar="PATH", help="write the JSON report here")
    ver.set_defaults(fn=_cmd_verify)

    cer = sub.add_parser("certify", help="build a generation certificate")
    cer.add_argument("--lambda", dest="lam", nargs=2, type=int, required=True,
                     metavar=("L1", "L2"))
    cer.add_argument("--json", metavar="PATH")
    cer.set_defaults(fn=_cmd_certify)

    con = sub.add_parser("concordance",
                         help="compare engine formulas with the reference display")
    con.add_argument("--json", metavar="PATH")
    con.set_defaults(fn=_cmd_concordance)

    op = sub.add_parser("op", help="parse, apply and compose operators")
    op.add_argument("action", choices=("print", "apply", "compose"))
    op.add_argument("expr", nargs="+",
                    help="operator text (and a second operator or function)")
    op.add_argument("--chart", choices=sorted(CHARTS), default="matrix")
    op.set_defaults(fn=_cmd_op)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "op":
        wanted = 2 if args.action in ("apply", "compose") else 1
        if len(args.expr) != wanted:
            print(f"op {args.action} expects {wanted} expression(s)",
                  file=sys.stderr)
            return 2
    json_path = getattr(args, "json", None)
    if json_path is not None and (why := _unwritable(json_path)):
        print(f"{args.command}: cannot write --json {json_path}: {why}",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
