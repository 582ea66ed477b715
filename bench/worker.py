"""One workload in one fresh process; started by `run.py`.

Sets up the workload (the import of `ditalg` included), then runs passes over
its task list until `--seconds` have gone by, or exactly `--passes` passes.
Each task's `run()` is timed on its own; answers are checked after the pass,
outside the pass's wall time. With `--trace 1` the package's entry points
are wrapped in spans before set-up. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

T0, T0_CPU = time.perf_counter(), time.thread_time()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    # the set-up is probed more often than a pass: it takes about 0.15 s
    probe = None if args.trace else Probe(period=0.01)
    if probe:
        probe.start()
    import ditalg  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    traced_from = time.perf_counter()
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        out = {"setup_s": time.perf_counter() - T0}
        if probe:
            cal = probe.stop()
            out["setup_cal"] = (probe.cpu() - T0_CPU) / cal
        if not args.setup_only:
            out.update(run_passes(workload, args))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracer.metrics(time.perf_counter() - traced_from)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _timed_job() -> float:
    """CPU seconds of a fixed pure-Python job (about 1 ms) that uses nothing
    from the package."""
    t = time.thread_time()
    x, counts = 12345, {}
    for _ in range(1500):
        x = (x * 1103515245 + 12345) % 2147483648
        counts[x % 1000] = counts.get(x % 1000, 0) + 1
    return time.thread_time() - t


def _cal(samples) -> float:
    """The mean of the job times, less the fastest and slowest tenth."""
    xs = sorted(samples)
    k = len(xs) // 10
    return statistics.mean(xs[k:len(xs) - k]) if xs else float("nan")


class Probe:
    """Samples the speed the machine gives this process while it works.

    Every `period` seconds of this process's CPU time a timer signal
    interrupts the work between two bytecodes and runs `_timed_job`;
    `sample()` runs one at once. `_cal` of the job times over a stretch of
    work is its "cal". The cores of a shared machine switch between slow and
    fast phases within a second, which move CPU times by up to half, and
    other processes' turns on the cores add to wall time besides; a CPU time
    divided by the cal of the same stretch of work cancels both. The mean,
    not the median, because the phases make the job times bimodal and the
    work runs in both. Thread CPU time is read, not process CPU time: while
    ITIMER_PROF is armed the process clock advances only at scheduler ticks.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []
        self.spent = 0.0                # CPU time of the jobs, to subtract
        self.busy = False
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        if self.busy:                   # the timer fired during a job
            return
        self.busy = True
        self.samples.append(_timed_job())
        self.spent += self.samples[-1]
        self.busy = False

    def sample(self):
        self._sample(None, None)

    def cpu(self) -> float:
        """This thread's CPU time without the probe's jobs."""
        return time.thread_time() - self.spent

    def start(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return _cal(self.samples)


def run_passes(workload, args) -> dict:
    """Passes over the workload's tasks. A run timed by `--seconds` (the
    end-to-end measurement) also carries a Probe, and reports its passes' and
    tasks' CPU times (less the probe's) in cal as well; a run of `--passes`
    (the per-layer measurement, traced or not) carries none. A task's cal
    takes a job just before and just after it besides the ones during it: a
    task of a millisecond runs in one phase of the machine, which only
    adjacent jobs see."""
    walls, latencies, cpus, failures = [], [], [], []
    passes_cal, tasks_cal, cals = [], [], []
    probe = None if args.passes else Probe(period=0.05)
    cpu_time = probe.cpu if probe else time.thread_time
    attempted = 0
    start = time.perf_counter()
    index = 0
    while True:
        tasks = workload.pass_tasks(index)
        results = []
        lat, cpu = [], []
        if probe:
            probe.start()
        for label, run, check in tasks:
            if probe:
                first = len(probe.samples)
                probe.sample()
            t, c = time.perf_counter(), cpu_time()
            try:
                result, error = run(), None
            except Exception:          # a failing task is counted, not fatal
                result, error = None, traceback.format_exc(limit=3)
            lat.append(time.perf_counter() - t)
            cpu.append(cpu_time() - c)
            if probe:
                probe.sample()
                tasks_cal.append(cpu[-1] / _cal(probe.samples[first:]))
            results.append((label, check, result, error))
        walls.append(sum(lat))
        cpus.append(sum(cpu))
        latencies.extend(lat)
        if probe:
            cals.append(probe.stop())
            passes_cal.append(sum(cpu) / cals[-1])
        for label, check, result, error in results:
            attempted += 1
            reason = error or _checked(check, result)
            if reason is not None:
                failures.append(f"{label}: {reason}")
        index += 1
        if args.passes and index >= args.passes:
            break
        if not args.passes and time.perf_counter() - start >= args.seconds:
            break
    return {"walls": walls, "latencies": latencies, "cpus": cpus, "passes_cal": passes_cal,
            "tasks_cal": tasks_cal, "cals": cals, "attempted": attempted,
            "failures": failures}


def _checked(check, result):
    from ditalg.pipeline import Obstruction

    if isinstance(result, Obstruction):
        return f"obstruction: {result.reason}"
    try:
        return check(result)
    except Exception:                  # a malformed answer is a failed task
        return traceback.format_exc(limit=3)


if __name__ == "__main__":
    sys.exit(main())
