"""Command-line front end.

Subcommands: build, irr, orbit, suite, classify.  Field elements on the
command line are written ``x0`` or ``x0+x1i`` where ``i`` denotes the square
root of the context non-residue t.  Every command is deterministic given its
flags and seed; with ``--json`` stdout carries a single JSON document.

Exit codes: 0 success, 1 suite failure, 2 bad input, 3 criterion/oracle
disagreement, 4 needs field extension.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .classify import (
    burnside_irreducible,
    classify_sample,
    irr_Vn_criterion,
    irr_W_criterion,
    s4_orbit,
    simeq_closure,
)
from .errors import NeedsExtension, UawqError
from .field import FieldCtx, Fq2, ctx_new
from .modules import Params4, Params5, build_Vn, build_W, dump_module
from .suite import LEVEL_COUNTS, run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_DISAGREE = 3
EXIT_NEEDS_EXTENSION = 4

_ELEMENT_RE = re.compile(r"^(-?\d+)(?:\+(-?\d+)i)?$")


def parse_element(ctx: FieldCtx, text: str) -> Fq2:
    m = _ELEMENT_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse field element {text!r}; write x0 or x0+x1i")
    return ctx.el(int(m.group(1)), int(m.group(2) or 0))


def parse_params(ctx: FieldCtx, text: str, arity: int) -> list[Fq2]:
    parts = [s for s in text.split(",") if s.strip()]
    if len(parts) != arity:
        raise ValueError(f"expected {arity} comma-separated elements, got {len(parts)}")
    return [parse_element(ctx, s) for s in parts]


def _error_exit(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _write_out(payload, args, human: str | None = None) -> None:
    if args.json or human is None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = human if human.endswith("\n") else human + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_matrix(name: str, rows: list[list[list[int]]]) -> str:
    def fmt(e):
        return f"{e[0]}+{e[1]}i" if e[1] else str(e[0])

    body = "\n".join("  [" + ", ".join(fmt(e) for e in row) + "]" for row in rows)
    return f"{name} =\n{body}"


def cmd_build(args) -> int:
    ctx = ctx_new(args.p, args.d)
    if args.kind == "vn":
        a, b, c = parse_params(ctx, args.params, 3)
        if args.n is None:
            raise ValueError("build vn requires --n")
        rep = build_Vn(a, b, c, args.n)
        lam = ctx.qpow(args.n)
        dump = dump_module(rep, Params4(a, b, c, lam), n=args.n)
    else:
        vals = parse_params(ctx, args.params, 5)
        p5 = Params5(*vals)
        rep = build_W(p5)
        dump = dump_module(rep, p5)
    human = "\n".join([
        f"p={dump['p']} d={dump['d']} dbar={dump['dbar']} dim={len(dump['A'])}",
        _format_matrix("A", dump["A"]),
        _format_matrix("B", dump["B"]),
        f"omega={dump['omega']} omega*={dump['omega_star']} omega_eps={dump['omega_eps']}",
    ])
    _write_out(dump, args, human)
    return EXIT_OK


def cmd_irr(args) -> int:
    ctx = ctx_new(args.p, args.d)
    if args.kind == "vn":
        a, b, c = parse_params(ctx, args.params, 3)
        if args.n is None:
            raise ValueError("irr vn requires --n")
        criterion = irr_Vn_criterion(a, b, c, args.n)
        oracle = burnside_irreducible(build_Vn(a, b, c, args.n))
    else:
        p5 = Params5(*parse_params(ctx, args.params, 5))
        criterion = irr_W_criterion(p5)
        oracle = burnside_irreducible(build_W(p5))
    agree = criterion == oracle
    payload = {"schema": 1, "criterion": criterion, "oracle": oracle, "agree": agree}
    human = f"criterion={criterion} oracle={oracle} agree={agree}"
    _write_out(payload, args, human)
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_orbit(args) -> int:
    ctx = ctx_new(args.p, args.d)
    parts = [s for s in args.params.split(",") if s.strip()]
    if len(parts) == 4:
        p4 = Params4(*[parse_element(ctx, s) for s in parts])
        orbit = s4_orbit(p4)
        kind = "quadruple"
    elif len(parts) == 5:
        p5 = Params5(*[parse_element(ctx, s) for s in parts])
        orbit = simeq_closure(p5, cap=args.cap)
        kind = "quintuple"
    else:
        raise ValueError("orbit takes 4 or 5 comma-separated elements")
    payload = {"schema": 1, "kind": kind, **orbit.to_json()}
    lines = [f"{kind} orbit: {orbit.size} sign-classes, {len(orbit.edges)} edges"]
    for m in orbit.members:
        lines.append("  (" + ", ".join(repr(x) for x in m) + ")")
    _write_out(payload, args, "\n".join(lines))
    return EXIT_OK


def cmd_suite(args) -> int:
    lines: list[str] = []

    def emit(s: str) -> None:
        lines.append(s)
        if not (args.json or args.out):
            print(s, flush=True)

    results = run_suite(args.p, args.d, seed=args.seed, level=args.level, emit=emit)
    ok = all(r.passed for r in results)
    if args.json or args.out:
        payload = {
            "schema": 1,
            "level": args.level,
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "counterexample": r.counterexample}
                for r in results
            ],
        }
        _write_out(payload, args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_SUITE_FAIL


def cmd_classify(args) -> int:
    ctx = ctx_new(args.p, args.d)
    report = classify_sample(ctx, args.seed, args.count, cap=args.cap)
    nclasses = len(report["classes"])
    human_lines = [
        f"seed={args.seed} count={args.count}: {nclasses} classes, "
        f"{len(report['rejected'])} rejected, {len(report['errors'])} errors",
    ]
    for i, cls in enumerate(report["classes"]):
        rep = ", ".join(f"{e[0]}+{e[1]}i" if e[1] else str(e[0]) for e in cls["representative"])
        human_lines.append(
            f"  class {i}: size={cls['size']} samples={len(cls['members'])} rep=({rep})")
    _write_out(report, args, "\n".join(human_lines))
    return EXIT_OK if report["classes"] or report["rejected"] else EXIT_SUITE_FAIL


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uawq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="odd prime modulus")
        p.add_argument("--d", type=int, required=True,
                       help="order of the root of unity (not 1, 2 or 4; divides p^2-1)")
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", help="write output to FILE instead of stdout")

    b = sub.add_parser("build", help="build a module and dump its matrices")
    b.add_argument("kind", choices=["vn", "w"])
    b.add_argument("--params", required=True,
                   help="a,b,c for vn; a,b,c,lam,delta for w (elements as x0 or x0+x1i)")
    b.add_argument("--n", type=int, help="truncation index for vn")
    common(b)
    b.set_defaults(fn=cmd_build)

    i = sub.add_parser("irr", help="run the irreducibility criterion and the spanning oracle")
    i.add_argument("kind", choices=["vn", "w"])
    i.add_argument("--params", required=True)
    i.add_argument("--n", type=int)
    common(i)
    i.set_defaults(fn=cmd_irr)

    o = sub.add_parser("orbit", help="parameter orbit (4 elements) or equivalence closure (5)")
    o.add_argument("--params", required=True)
    o.add_argument("--cap", type=int, default=10_000, help="closure node budget")
    common(o)
    o.set_defaults(fn=cmd_orbit)

    s = sub.add_parser("suite", help="run the named property suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--level", choices=sorted(LEVEL_COUNTS), default="standard")
    common(s)
    s.set_defaults(fn=cmd_suite)

    c = sub.add_parser("classify", help="sample, filter, group and cross-validate quintuples")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--count", type=int, required=True)
    c.add_argument("--cap", type=int, default=10_000)
    common(c)
    c.set_defaults(fn=cmd_classify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NeedsExtension as exc:
        return _error_exit(EXIT_NEEDS_EXTENSION, type(exc).__name__, str(exc))
    except (UawqError, ValueError) as exc:
        return _error_exit(EXIT_BAD_INPUT, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
