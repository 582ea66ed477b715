"""The ditalg benchmark: one workload per call, from the repository root.

    python3 bench/run.py --workload referee --seed 1 --seconds 20 --trace 0

Workloads (see `workloads.py`): `referee`, `reduce-q`, `modcat-distinct`.
Each is closed-loop, one task at a time, in a fresh child process with
PYTHONHASHSEED=0 and DITALG_SEED=--seed; the package is imported from `src/`.

`--trace 0` prints the end-to-end metrics. Gated (see BENCHMARK.json):
`pass_cal` (median over passes of one pass's CPU time, the sum of its tasks'
CPU times, in cal), `task_p50_cal` (median task CPU time pooled over passes,
in cal), `setup_s` (median over nine set-ups, each in its own process: the
import, fixtures, certify, presentation files and inputs; CPU time in cal,
given in seconds of a machine where a cal is CAL_S) and `peak_rss_mb` (the
measuring child's ru_maxrss). A cal is the mean time of a fixed pure-Python
job that a timer signal runs during the work (see `worker.Probe`); a time in
cal cancels the slow and fast phases of a shared machine, which move raw
times by up to half between runs. Printed too, not gated: the raw `wall_s`,
`pass_cpu_s` and `task_p50_s`, `task_tail_s` (omitted where fewer than ten
samples lie beyond the 50th percentile) and `fail_ratio` (a gated metric
must never read 0).

`--trace 1` runs one traced pass and then one untraced pass, each in its own
child, and prints the per-layer metrics (see `tracer.py`), the tracing
overhead and the time no span covers. It also checks that every entry point
the workload is expected to exercise (EXPECTED) recorded a call.

Every answer is checked against a reference; the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170          # every run must end within 180 s
WORKDIR = ".bench_work"   # scratch files of the children, inside the checkout
SETUPS = 9                # set-ups measured per run; setup_s is their median
CAL_S = 0.0007            # setup_s is in seconds of a machine where a cal is 0.7 ms
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_LINALG = ["scalars.linalg." + f for f in ("rref", "kernel_basis", "solve", "mul", "inverse")]
_MODCAT = ["modcat." + f for f in ("hom", "compose", "is_isomorphism", "EndAlgebra",
                                   "algebra_radical", "decompose", "is_indecomposable",
                                   "iso_test", "Rep.validate")]
_IO = ["presentation.load_presentation", "presentation.save_report"]
# per-layer metrics that must not read 0 on each workload: the calls of the
# entry points in the benchmark's layer table, less those without traffic
# there at the seed (see README.md), and the pipeline phases
EXPECTED = {
    "referee": [k + ".calls" for k in _LINALG + _MODCAT + _IO + ["interlace.certify"]]
    + ["scalars.linalg.Mat.init.calls", "pipeline.referee_s"],
    "reduce-q": [k + ".calls" for k in _IO + [
        "interlace.certify", "tensor.Elem.mul", "tensor.Differential.apply",
        "reduce.regularize", "reduce.absorb", "reduce.delete_idempotents",
        "reduce.induced_reduction", "reduce.apply_rep", "admissible.build_admissible",
        "admissible.reduce_admissible", "bimodule.push_generic"]]
    + ["pipeline.reduce_s", "pipeline.listing_s"],
    "modcat-distinct": [k + ".calls" for k in _LINALG + _MODCAT + [
        "interlace.certify", "scalars.poly.factor", "modcat.hom_dim",
        "modcat.split_idempotent", "reduce.apply_rep"]]
    + ["scalars.linalg.Mat.init.calls"],
}


def child(args, root, extra, timeout):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["DITALG_SEED"] = str(args.seed)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(root, WORKDIR)] + extra
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(percentile, value, beyond) for the highest percentile of TAIL_LADDER
    with at least ten samples above it, or None."""
    xs = sorted(latencies)
    for q in TAIL_LADDER:
        k = int(len(xs) * q / 100)
        if k < len(xs) and len(xs) - k - 1 >= 10:
            return q, xs[k], len(xs) - k - 1
    return None


def quartile_spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def end_to_end(args, root, deadline):
    setups = [child(args, root, ["--setup-only"], deadline - time.monotonic())
              for _ in range(SETUPS - 1)]
    res = child(args, root, ["--seconds", str(args.seconds)], deadline - time.monotonic())
    setups.append(res)
    walls, lat = res["walls"], res["latencies"]
    attempted, failed = res["attempted"], len(res["failures"])
    metrics = {
        "pass_cal": (statistics.median(res["passes_cal"]), "cal"),
        "task_p50_cal": (statistics.median(res["tasks_cal"]), "cal"),
        "setup_s": (statistics.median(s["setup_cal"] for s in setups) * CAL_S, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}: {len(walls)} passes, {len(lat)} tasks")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  wall_s       {statistics.median(walls):.6g} s (spread over passes: "
          f"quartiles/median {quartile_spread(walls):.3f}, min {min(walls):.4g} s, "
          f"max {max(walls):.4g} s)")
    print(f"  pass_cpu_s   {statistics.median(res['cpus']):.6g} s (CPU time; "
          f"{', '.join(f'{x:.4g}' for x in res['cpus'])})")
    print(f"  task_p50_s   {statistics.median(lat):.6g} s")
    t = tail(lat)
    if t is None:
        print(f"  task_tail_s  omitted ({len(lat)} samples, fewer than 10 beyond p50)")
    else:
        print(f"  task_tail_s  {t[1]:.6g} s (p{t[0]:g}, n={len(lat)}, {t[2]} beyond)")
    print(f"  fail_ratio   {failed / attempted:.6g} ({failed}/{attempted})")
    print("  1 cal = " + ", ".join(f"{x:.4g}" for x in res["cals"]) + " s in the passes")
    print("  set-ups: " + ", ".join(f"{s['setup_cal'] * CAL_S:.4f}" for s in setups)
          + " s; wall " + ", ".join(f"{s['setup_s']:.4f}" for s in setups) + " s")
    return attempted, res["failures"], metrics


def per_layer(args, root, deadline):
    """One traced pass for the per-layer metrics, then one untraced pass of
    the same inputs for the tracing overhead."""
    one = ["--passes", "1"]
    a = child(args, root, one + ["--trace", "1"], deadline - time.monotonic())
    c = child(args, root, one, deadline - time.monotonic())
    metrics = {k: tuple(v) for k, v in a["layers"].items()}
    traced, untraced = a["walls"][0], c["walls"][0]
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    silent = [k for k in EXPECTED[args.workload] if metrics[k][0] == 0]
    metrics["trace.expected_but_zero"] = (len(silent), "count")
    print(f"workload {args.workload}: traced pass {traced:.4f} s, "
          f"untraced pass {untraced:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    for k in silent:
        print(f"  EXPECTED NONZERO: {k} reads 0")
    return a["attempted"] + c["attempted"], a["failures"] + c["failures"], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["referee", "reduce-q", "modcat-distinct"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ditalg", "__init__.py")):
        print("bench: run from the repository root (src/ditalg not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            attempted, failures, metrics = per_layer(args, root, deadline)
        else:
            attempted, failures, metrics = end_to_end(args, root, deadline)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:       # absent, or another run still uses it
            pass
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
