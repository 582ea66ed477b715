"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 certificate failure, 4 obstruction.
Every command is deterministic: the same input gives the same output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import modcat
from .interlace import UnsupportedShapeError, certify
from .pipeline import Obstruction, classify, reduce_to_minimal
from .presentation import (
    ParseError, load_module, load_presentation, save_presentation, save_report,
)
from .reduce import StepSpec


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERT = 3
EXIT_OBSTRUCTION = 4


def cmd_check(args) -> int:
    try:
        dit = load_presentation(args.path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    flags = certify(dit)
    order = ["directed", "triangular_layer", "triangular_ideal", "balanced",
             "interlaced", "roiter"]
    failed = False
    for key in order:
        val = flags.get(key)
        if val is True:
            print(f"{key}: pass")
        elif val is None:
            print(f"{key}: unsupported shape (bivariate ideal membership)")
            failed = True
        else:
            line = f"{key}: FAIL"
            if key == "directed":
                cyc = dit.bigraph.find_cycle()
                if cyc:
                    line += f" (cycle through {' -> '.join(cyc)})"
            print(line)
            failed = True
    return EXIT_CERT if failed else EXIT_OK


def cmd_hom(args) -> int:
    try:
        dit = load_presentation(args.path)
        certify(dit)
        M = load_module(dit, args.module_m)
        N = load_module(dit, args.module_n)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    basis = modcat.hom(dit, M, N)
    print(f"dim hom = {len(basis)}")
    F = dit.field
    for i, f in enumerate(basis):
        print(f"basis[{i}]:")
        for p in dit.bigraph.point_order:
            m = f.f0[p]
            if m.rows and m.cols and not m.is_zero():
                print(f"  f0[{p}] = {[[F.format(v) for v in row] for row in m.data]}")
        for a in dit.bigraph.dashed_arrows():
            m = f.f1[a.name]
            if m.rows and m.cols and not m.is_zero():
                print(f"  f1[{a.name}] = {[[F.format(v) for v in row] for row in m.data]}")
    return EXIT_OK


def _load_plan(dit, path):
    with open(path, "r", encoding="utf8") as fh:
        data = json.load(fh)
    steps = []
    for i, entry in enumerate(data.get("steps", [])):
        kind = entry.get("kind")
        if kind not in ("deletion", "regularization", "factor_out", "absorption"):
            raise ParseError(f"unsupported plan step kind {kind!r}", f"steps[{i}]")
        steps.append(StepSpec(kind, {k: v for k, v in entry.items() if k != "kind"}))
    return steps


def cmd_reduce(args) -> int:
    try:
        dit = load_presentation(args.path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    certify(dit)
    if args.plan:
        try:
            specs = _load_plan(dit, args.plan)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        cur = dit
        for i, spec in enumerate(specs):
            cur, functor = spec.apply(cur)
            flags = " ".join(k for k, v in cur.certificates.items() if v)
            print(f"step {i}: {spec.kind} -> {len(cur.bigraph.points)} points [{flags}]")
        final = cur
    else:
        result = reduce_to_minimal(dit, args.auto, args.budget)
        if isinstance(result, Obstruction):
            print(f"obstruction: {result.reason}")
            return EXIT_OBSTRUCTION
        plan, final = result
        for line in plan.log():
            print(line)
        print(f"minimal: {len(final.bigraph.points)} points, "
              f"{len(final.bigraph.dashed_arrows())} dashed arrows, "
              f"budget used {plan.budget_used}")
    if args.out:
        save_presentation(final, args.out)
        print(f"target presentation written to {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        dit = load_presentation(args.path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    certify(dit)
    sample = []
    if args.lambda_sample:
        for tok in args.lambda_sample.split(","):
            sample.append(dit.field.parse(tok.strip()))
    report = classify(dit, args.dim, args.budget, lambda_sample=sample)
    if isinstance(report, Obstruction):
        print(f"obstruction: {report.reason}")
        return EXIT_OBSTRUCTION
    for line in report.summary():
        print(line)
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ditalg",
        description="exact computer algebra for differential biquiver algebras "
                    "with relations: certification, hom spaces, reductions, and "
                    "bounded-dimension classification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the presentation certificates")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hom", help="basis of the hom space between two modules")
    p.add_argument("path")
    p.add_argument("module_m")
    p.add_argument("module_n")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("reduce", help="run reductions (a plan file or --auto)")
    p.add_argument("path")
    p.add_argument("--plan", default=None, help="JSON plan file")
    p.add_argument("--auto", type=int, default=None, metavar="D",
                   help="reduce to a minimal presentation covering dimension D")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--out", default=None, help="write the target presentation")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classify", help="classify indecomposables up to a dimension bound")
    p.add_argument("path")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--lambda-sample", default=None,
                   help="comma-separated field elements for family listings")
    p.add_argument("--out", default=None, help="write the machine-readable report")
    p.set_defaults(func=cmd_classify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "reduce" and not args.plan and args.auto is None:
        print("reduce needs --plan or --auto D", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except UnsupportedShapeError as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
