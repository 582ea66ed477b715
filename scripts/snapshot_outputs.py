"""Write the reduction and classification outputs of a fixed case list as JSON.

Usage: PYTHONPATH=src python scripts/snapshot_outputs.py OUTDIR

For each case (fixture, field, dimension bound) one file OUTDIR/<case>.json
holds the plan log, every plan step's kind, note, spec data and target
presentation, the final presentation (or the obstruction reason and the
presentation where the run stopped), and the classification report with its
summary.  When the report lists at least two indecomposables, it also holds
the `decompose` of the direct sum of the first two (the summands' dimensions,
arrow matrices and x-actions), which runs `split_idempotent` on the dashed
layer levels.  Under "interlace" it also holds, for a fresh copy of the fixture,
the certificate flags, the presentation after certification (with its layer
filtrations), the quotient's reduced differential and dashed kernel (or the
error raised), and the kernel-lemma check for every pair of points at
length cap 3.  Run it on two checkouts and compare the directories with `diff -r`
to show that a refactor leaves every output unchanged.
"""

import json
import os
import sys

from ditalg import fixtures
from ditalg.interlace import certify, kernel_lemma_dimension_check, quotient
from ditalg.modcat import decompose, direct_sum
from ditalg.pipeline import Obstruction, classify
from ditalg.presentation import emit_elem, emit_presentation, emit_report
from ditalg.scalars import field_from_name
from ditalg.scalars.linalg import Mat

CASES = [
    ("exk", "F2", 4), ("exk", "F3", 4), ("exk", "F5", 3), ("exk", "Q", 6),
    ("exl", "F2", 4), ("exl", "Q", 4),
    ("exi", "F3", 3), ("exi", "Q", 4),
    ("ex1", "F2", 3),
    ("ex2", "F3", 3), ("ex2", "Q", 4),
    ("exr", "F2", 3), ("exr", "Q", 4),
    ("exq", "F3", 3),
    ("exl2", "F2", 3), ("exl2", "Q", 4),
    ("stellar_case1", "F3", 3),
    ("stellar_case2", "F3", 2),
    ("exa", "F3", 3),
    ("exx", "F3", 3),
]


def plain(value):
    """Spec data as plain JSON: matrices become their shape and rows of strings."""
    if isinstance(value, Mat):
        fmt = getattr(value.F, "format", str)
        return {"shape": [value.rows, value.cols],
                "rows": [[fmt(v) for v in row] for row in value.data]}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def outcome(thunk):
    """thunk() as plain JSON data, or the type and message of its error."""
    try:
        return thunk()
    except ValueError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def rep_data(M) -> dict:
    """A module as plain JSON: dimensions, arrow matrices and x-actions."""
    return {"dims": plain(M.dims), "arrow_ops": plain(M.arrow_ops),
            "point_ops": plain(M.point_ops)}


def interlace_snapshot(dit) -> dict:
    """Certificates, quotient and kernel-lemma answers of one presentation."""
    b = dit.bigraph

    def quotient_data():
        q = quotient(dit)
        return {"reduced_delta": {n: emit_elem(b, v) for n, v in sorted(q.reduced_delta.items())},
                "dashed_kernel": [emit_elem(b, e) for e in q.dashed_kernel]}

    out = {"certify": certify(dit), "certified": emit_presentation(dit),
           "quotient": outcome(quotient_data)}
    out["kernel_lemma"] = {
        f"{i}->{j}": outcome(lambda: kernel_lemma_dimension_check(dit, i, j, length_cap=3))
        for i in b.point_order for j in b.point_order}
    return out


def snapshot(fixture: str, field: str, d: int) -> dict:
    build = getattr(fixtures, fixture)
    dit = build(field_from_name(field))
    result = classify(dit, d)
    if isinstance(result, Obstruction):
        steps = result.steps
        out = {"obstruction": result.reason, "stopped_at": emit_presentation(result.dit)}
    else:
        steps = result.plan.steps
        out = {"log": result.plan.log(), "final": emit_presentation(result.minimal),
               "report": emit_report(result), "summary": result.summary()}
        listed = result.indecomposables
        if len(listed) >= 2:
            out["decompose_first_two"] = outcome(lambda: [
                rep_data(M) for M in decompose(listed[0].dit, direct_sum(listed[:2]))])
    out["steps"] = [{"kind": s.functor.kind, "note": s.note,
                     "spec": None if s.spec is None else
                     {"kind": s.spec.kind, "data": plain(s.spec.data)},
                     "target": emit_presentation(s.functor.target)} for s in steps]
    out["interlace"] = interlace_snapshot(build(field_from_name(field)))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    for fixture, field, d in CASES:
        path = os.path.join(outdir, f"{fixture}-{field}-{d}.json")
        with open(path, "w", encoding="utf8") as fh:
            json.dump(snapshot(fixture, field, d), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
