"""Write the reduction and classification outputs of a fixed case list as JSON.

Usage: PYTHONPATH=src python scripts/snapshot_outputs.py OUTDIR

For each case (fixture, where P3 is the parabolic ditalgebra P_3; field;
dimension bound) one file OUTDIR/<case>.json
holds the plan log, every plan step's kind, note, spec data and target
presentation, the step functor's image of the simple module at each trivial
point and of the generic module at each rational point of the step's target
(which reaches every reduction's `apply_rep`), the final presentation (or
the obstruction reason and the presentation where the run stopped), and the
classification report with its summary.  When the report lists at least
two indecomposables, it also holds the `decompose` of the direct sum S of the
first two (the summands' dimensions, arrow matrices and x-actions), which
cuts S into the summands its coordinates show, and under
"decompose_twisted_first_two" the `decompose` of S transported by `twisted`.
Where the twist mixes the summands' coordinates, that runs the Fitting
idempotents and `split_idempotent` on the dashed layer levels; it cannot
for two simples at points that no arrow or delta-value joins.  Under
"interlace" it also holds, for a fresh copy of the fixture,
the certificate flags, the presentation after certification (with its layer
filtrations), the quotient's reduced differential and dashed kernel (or the
error raised), and the kernel-lemma check for every pair of points at
length cap 3.  For a case where `classify` ran the brute-force referee,
"referee" holds the referee's number of classes per dimension vector, which
does not depend on the representatives it picks.  Run it on two checkouts and
compare the directories with `diff -r` to show that a refactor leaves every
output unchanged.
"""

import json
import os
import sys

from ditalg import fixtures
from ditalg.bimodule import generic_regular
from ditalg.interlace import (
    GradedIdeal, certify, generated_ideal, kernel_lemma_dimension_check, quotient,
)
from ditalg.modcat import decompose, direct_sum, simple_at, transport_structure
from ditalg.pipeline import Obstruction, brute_force_indecomposables, classify
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
    ("P3", "F2", 4),
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


def twisted(dit, S):
    """S transported along f0 with entries min(i, j) + 1 at each point (the
    product of the lower and the upper unipotent all-ones matrices, so of
    determinant 1 over every field) and f1 with every entry 1 at each
    dashed arrow."""
    F, b = dit.field, dit.bigraph
    f0 = {p: Mat(F, S.dims[p], S.dims[p], [[F.from_int(min(i, j) + 1)
                                            for j in range(S.dims[p])]
                                           for i in range(S.dims[p])])
          for p in b.point_order}
    f1 = {a.name: Mat(F, S.dims[a.target], S.dims[a.source],
                      [[F.one] * S.dims[a.source]] * S.dims[a.target])
          for a in b.dashed_arrows()}
    return transport_structure(dit, S, f0, f1)


def step_images(functor) -> dict:
    """The step functor applied to the simple module at each trivial point
    and to the generic module at each rational point of its target."""
    tgt = functor.target
    b = tgt.bigraph

    def image(p):
        N = simple_at(tgt, p) if b.factor(p).is_trivial else generic_regular(tgt, p)
        return rep_data(functor.apply_rep(N))

    return {p: outcome(lambda: image(p)) for p in b.point_order}


def interlace_snapshot(dit) -> dict:
    """Certificates, quotient and kernel-lemma answers of one presentation."""
    b = dit.bigraph

    def quotient_data():
        q = quotient(dit)
        return {"reduced_delta": {n: emit_elem(b, v) for n, v in sorted(q.reduced_delta.items())},
                "dashed_kernel": [emit_elem(b, e) for e in q.dashed_kernel]}

    out = {"certify": certify(dit), "certified": emit_presentation(dit),
           "quotient": outcome(quotient_data)}
    # J is built once for every pair; where it cannot be built, each pair
    # whose window is not empty reports the error itself
    ideal = outcome(lambda: generated_ideal(dit))
    gi = ideal if isinstance(ideal, GradedIdeal) else None
    out["kernel_lemma"] = {
        f"{i}->{j}": outcome(lambda: kernel_lemma_dimension_check(dit, i, j, length_cap=3, gi=gi))
        for i in b.point_order for j in b.point_order}
    return out


def referee_counts(dit, d: int) -> dict:
    """The referee's number of classes per dimension vector."""
    counts = {}
    for M in brute_force_indecomposables(dit, d):
        key = " ".join(f"{p}={n}" for p, n in sorted(M.dims.items()))
        counts[key] = counts.get(key, 0) + 1
    return counts


def build(fixture: str, F):
    """The fixture named `fixture` over F; P<t> is the parabolic ditalgebra P_t."""
    if fixture[0] == "P":
        return fixtures.parabolic(F, int(fixture[1:]))
    return getattr(fixtures, fixture)(F)


def snapshot(fixture: str, field: str, d: int) -> dict:
    F = field_from_name(field)
    dit = build(fixture, F)
    result = classify(dit, d)
    if isinstance(result, Obstruction):
        steps = result.steps
        out = {"obstruction": result.reason, "stopped_at": emit_presentation(result.dit)}
    else:
        steps = result.plan.steps
        out = {"log": result.plan.log(), "final": emit_presentation(result.minimal),
               "report": emit_report(result), "summary": result.summary()}
        if result.brute_residue is not None:
            out["referee"] = referee_counts(build(fixture, F), d)
        listed = result.indecomposables
        if len(listed) >= 2:
            dit, S = listed[0].dit, direct_sum(listed[:2])
            out["decompose_first_two"] = outcome(lambda: [
                rep_data(M) for M in decompose(dit, S)])
            out["decompose_twisted_first_two"] = outcome(lambda: [
                rep_data(M) for M in decompose(dit, twisted(dit, S))])
    out["steps"] = [{"kind": s.functor.kind, "note": s.note,
                     "spec": None if s.spec is None else
                     {"kind": s.spec.kind, "data": plain(s.spec.data)},
                     "target": emit_presentation(s.functor.target),
                     "images": step_images(s.functor)} for s in steps]
    out["interlace"] = interlace_snapshot(build(fixture, F))
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
