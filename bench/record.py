"""Record a trajectory point: every workload's end-to-end and per-layer
metrics, plus the determinism self-test, into one JSON file.

    python3 bench/record.py --label <commit> --out bench/trajectory/BENCH_<n>.json

Run from the repository root. Each workload is run once with `--trace 0` and
twice with `--trace 1`; every count metric of the two traced runs must
repeat, and any that does not is listed under "nonrepeating_counters".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("referee", "reduce-q", "modcat-distinct")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the commit measured")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)

    point = {"label": args.label, "nproc": os.cpu_count(),
             "python": platform.python_version(), "machine": platform.machine(),
             "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        e2e = bench(w, args.seed, args.seconds, 0)
        first = bench(w, args.seed, args.seconds, 1)
        second = bench(w, args.seed, args.seconds, 1)
        moved = sorted(k for k, v in first["metrics"].items()
                       if v["unit"] == "count" and v["value"] != second["metrics"][k]["value"])
        point["workloads"][w] = {
            "correct": e2e["correct"] and first["correct"] and second["correct"],
            "failed": [e2e["failed"], first["failed"], second["failed"]],
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in first["metrics"].items()},
            "nonrepeating_counters": moved,
        }
        print(f"{w}: correct={point['workloads'][w]['correct']} "
              f"nonrepeating={moved}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
