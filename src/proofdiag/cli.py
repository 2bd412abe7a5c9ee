"""Command-line surface.

Exit codes: 0 success / yes; 1 negative verdict; 2 parse errors and files
that cannot be read or written; 3 contract violations; 10 unknown verdict.
Every subcommand accepts ``--json`` for machine-readable output.
"""
from __future__ import annotations

import argparse
import json
import sys

from .diagram import DiagramError
from .diagramio import (
    ParseError,
    diagram_text,
    parse_derivation,
    parse_diagram,
    parse_sequent,
)
from .formula import show
from .interp import check_decrease, cut_weight, interpretation_for
from .oracle import ConclusionMismatch, eliminate_cuts, equivalent
from .polygraph import FuelExhausted, normalize, polygraph
from .render import render_svg, render_tikz
from .sequent import (
    derivation_str,
    enumerate_derivations,
    sequent_str,
)
from .translate import NotSequentializable, is_sequentializable, represent, sequentialize

POLY_BY_FLAG = {
    "S": "S",
    "s": "S",
    "mllu": "MLLu_Cut",
    "mll-ctrl": "MLL_ctrl",
    "mll": "MLL_big",
    "sem": "Sem",
}

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_UNKNOWN = 10


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _put(args, key: str, out: str) -> int:
    """Write out to the ``-o`` file, or emit it under key when there is none."""
    if not args.output:
        _emit(args, {key: out}, out)
        return EXIT_OK
    try:
        with open(args.output, "w") as fh:
            fh.write(out)
    except OSError as e:
        print(f"cannot write {args.output}: {e.strerror or e}", file=sys.stderr)
        return EXIT_PARSE
    _emit(args, {"written": args.output}, f"wrote {args.output}")
    return EXIT_OK


def _load_diagram_or_derivation(path: str):
    text = _read(path)
    if text.lstrip().startswith("proofdiag-diagram"):
        return parse_diagram(text), "diagram"
    return parse_derivation(text), "derivation"


def cmd_check(args) -> int:
    concl = parse_derivation(_read(args.file)).conclusion
    _emit(args, {"valid": True, "conclusion": sequent_str(concl)}, f"|- {sequent_str(concl)}")
    return EXIT_OK


def cmd_represent(args) -> int:
    d = parse_derivation(_read(args.file))
    sig = "controlled" if args.sig == "ctrl" else "uncontrolled"
    return _put(args, "diagram", diagram_text(represent(d, sig)))


def cmd_seq(args) -> int:
    phi = parse_diagram(_read(args.file))
    if not is_sequentializable(phi):
        _emit(args, {"sequentializable": False}, "not sequentializable")
        return EXIT_NO
    d = sequentialize(phi)
    _emit(
        args,
        {
            "sequentializable": True,
            "derivation": derivation_str(d),
            "conclusion": sequent_str(d.conclusion),
        },
        f"{derivation_str(d)}\n|- {sequent_str(d.conclusion)}",
    )
    return EXIT_OK


def _step_record(rule_name: str, site) -> dict:
    rec = {"rule": rule_name, "gates": list(site.g_ops)}
    if site.substitution:
        rec["substitution"] = {k: show(v) for k, v in site.substitution}
    if site.payload:
        rec["detail"] = [str(x) for x in site.payload]
    return rec


def cmd_normalize(args) -> int:
    phi = parse_diagram(_read(args.file))
    p = polygraph(POLY_BY_FLAG[args.polygraph])
    try:
        nf, trace = normalize(p, phi)
    except FuelExhausted as e:
        _emit(args, {"error": str(e)}, str(e))
        return EXIT_CONTRACT
    steps = [_step_record(r, s) for r, s in trace.steps]
    payload = {"normal_form": diagram_text(nf), "steps": steps}
    text = diagram_text(nf)
    if args.emit_trace:
        text += "".join(f"# step {json.dumps(s, sort_keys=True)}\n" for s in steps)
    if args.check_decrease:
        report = check_decrease(p, interpretation_for(p), trace)
        payload["decrease"] = [f"{s.rule}:{s.status}" for s in report.steps]
        payload["decrease_ok"] = report.ok
        text += f"# decrease ok: {report.ok}\n"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_cut_elim(args) -> int:
    obj, kind = _load_diagram_or_derivation(args.file)
    phi = represent(obj) if kind == "derivation" else obj
    try:
        nf, trace = eliminate_cuts(phi)
    except DiagramError as e:
        _emit(args, {"error": str(e)}, str(e))
        return EXIT_CONTRACT
    payload = {
        "normal_form": diagram_text(nf),
        "steps": [r for r, _ in trace.steps],
        "cut_weight_before": cut_weight(phi),
        "cut_weight_after": cut_weight(nf),
    }
    _emit(args, payload, diagram_text(nf))
    return EXIT_OK


def cmd_equiv(args) -> int:
    d1 = parse_derivation(_read(args.d1))
    d2 = parse_derivation(_read(args.d2))
    try:
        cert = equivalent(d1, d2, bound=args.bound, mode=args.mode)
    except ConclusionMismatch as e:
        _emit(args, {"error": str(e)}, f"conclusion mismatch: {e}")
        return EXIT_CONTRACT
    _emit(args, cert.as_dict(), cert.verdict)
    if cert.verdict == "yes":
        return EXIT_OK
    if cert.verdict == "no":
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_render(args) -> int:
    phi = parse_diagram(_read(args.file))
    return _put(args, "rendered", render_svg(phi) if args.format == "svg" else render_tikz(phi))


def cmd_oracle(args) -> int:
    if args.oracle_cmd != "enumerate":
        raise ParseError(f"unknown oracle command {args.oracle_cmd!r}")
    s = parse_sequent(args.sequent)
    found = enumerate_derivations(s, args.max_rules)
    lines = [derivation_str(d) for d in found]
    _emit(args, {"count": len(found), "derivations": lines}, "\n".join(lines) or "(none)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="proofdiag",
        description="proof diagrams for multiplicative linear logic with units",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="validate a derivation file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("represent", help="derivation -> diagram")
    p.add_argument("file")
    p.add_argument("--sig", choices=["ctrl", "uncontrolled"], default="ctrl")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("seq", help="sequentializability + derivation")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("normalize", help="rewrite to normal form")
    p.add_argument("file")
    p.add_argument("--polygraph", choices=sorted(POLY_BY_FLAG), required=True)
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--check-decrease", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("cut-elim", help="eliminate cuts from a diagram or derivation")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_cut_elim)

    p = sub.add_parser("equiv", help="equivalence oracle")
    p.add_argument("d1")
    p.add_argument("d2")
    p.add_argument("--mode", choices=["sim", "sem"], default="sem")
    p.add_argument("--bound", type=int, default=12)
    common(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("render", help="render a diagram")
    p.add_argument("file")
    p.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("oracle", help="test-support oracles")
    p.add_argument("oracle_cmd", choices=["enumerate"])
    p.add_argument("sequent")
    p.add_argument("--max-rules", type=int, default=5)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (DiagramError, NotSequentializable, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
