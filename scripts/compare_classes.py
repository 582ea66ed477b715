"""Compare the classified indecomposables of two snapshot directories, class by class.

Usage: PYTHONPATH=src python scripts/compare_classes.py A B

A and B are directories written by `scripts/snapshot_outputs.py`.  For each
case file <fixture>-<field>-<bound>.json in A, the certified fixture is built
again and the modules of the report's `indecomposables` and
`exhaustive_residue` are parsed on both sides with
`presentation.parse_module`.  The two lists are matched one to one with
`modcat.iso_test`; each list holds pairwise non-isomorphic classes, so a
greedy match is exact.  One line per case: MATCH when every class has a
partner and the numbers of families agree, MISMATCH (with the reason)
otherwise, and NO REPORT when neither side has a report (the run stopped
at an obstruction).  Exits 1 when any case mismatches.
"""

import json
import os
import sys

from ditalg import fixtures
from ditalg.interlace import certify
from ditalg.modcat import iso_test
from ditalg.presentation import parse_module
from ditalg.scalars import field_from_name


def classes(dit, report: dict) -> list:
    """The report's listed modules and referee residue, parsed over `dit`."""
    listed = report["indecomposables"] + report.get("exhaustive_residue", [])
    return [parse_module(dit, m, f"module {i}") for i, m in enumerate(listed)]


def compare(dit, ra: dict, rb: dict) -> str:
    """MATCH, or MISMATCH and why, for the reports of one case."""
    if len(ra["families"]) != len(rb["families"]):
        return f"MISMATCH families {len(ra['families'])} != {len(rb['families'])}"
    left, right = classes(dit, ra), classes(dit, rb)
    if len(left) != len(right):
        return f"MISMATCH classes {len(left)} != {len(right)}"
    unmatched = list(right)
    for i, M in enumerate(left):
        partner = next((N for N in unmatched if iso_test(dit, M, N)), None)
        if partner is None:
            return f"MISMATCH class {i} (dims {dict(M.dims)}) has no partner"
        unmatched.remove(partner)
    return f"MATCH {len(left)} classes, {len(ra['families'])} families"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a_dir, b_dir = argv
    failed = False
    for fname in sorted(os.listdir(a_dir)):
        if not fname.endswith(".json"):
            continue
        fixture, field, bound = fname[:-len(".json")].rsplit("-", 2)
        with open(os.path.join(a_dir, fname), encoding="utf8") as fh:
            ra = json.load(fh).get("report")
        path_b = os.path.join(b_dir, fname)
        if not os.path.exists(path_b):
            verdict = "MISMATCH missing in B"
        else:
            with open(path_b, encoding="utf8") as fh:
                rb = json.load(fh).get("report")
            if ra is None and rb is None:
                verdict = "NO REPORT"
            elif ra is None or rb is None:
                verdict = "MISMATCH report on one side only"
            else:
                dit = getattr(fixtures, fixture)(field_from_name(field))
                certify(dit)
                verdict = compare(dit, ra, rb)
        failed |= verdict.startswith("MISMATCH")
        print(f"{fixture} {field} d={bound}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
