"""The idals benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; idals is imported from `src/` there.  Each
workload is a closed loop with one caller: one process runs its task list
task after task, with no threads, and repeats the whole list while the next
pass still fits in `--seconds`.  Outputs are checked by each task's oracle
after timing.

With `--trace 0` the last line of standard output is a JSON object
{correct, attempted, failed, metrics} carrying the end-to-end metrics:

    wall_s          median over passes of the wall time of a whole pass
    cpu_s           median over passes of the process CPU time of a pass
    task_p50_ms     median over tasks of each task's median time
    task_p90_ms     90th percentile of the same (>= 100 tasks per workload)
    slowest_task_s  largest median task time
    setup_s         median over fresh interpreters of import + input generation
    peak_rss_mb     ru_maxrss of this process after the passes

A pass's time is the sum of its tasks' times, with the garbage collector
on, so allocation and collection cost counts as the program pays it.

Every time is scaled to a host of fixed speed.  A shared machine runs the
same code up to half again slower, in spells from under a second to
minutes long, so no statistic over one run's raw times repeats across
runs.  Within each pass the run times `reference.run()`, a fixed 25 ms
computation that uses none of idals' code, before the first task, after
the last and after any task that ends REF_EVERY (0.25 s) or more after
the previous reference run.  Each task's wall time is multiplied by
REF_SECONDS over the mean wall time of the two reference runs around it,
its CPU time likewise by their CPU times, and each set-up probe's time by
the reference runs just before and after it.  A change to idals moves the
figures by its full effect; a change in host speed moves the reference
with them and cancels.  The raw figures are in the record line.

With `--trace 1` untraced and traced passes alternate and the metrics are
the per-layer ones of `tracer.layer_metrics` from the fastest traced pass
(times scaled as above), plus `trace_overhead` (traced over untraced
wall time).  The spans of the last traced pass are written to
`.bench_build/perfbench/`.  That count metrics repeat exactly is checked
across processes by `check_determinism.py`.

The line before the result is a record of the run: environment, task
count, failed_frac, the number of reference runs, each pass's raw wall
time and its scale factor (scaled over raw), the raw set-up time, and the
scaled median times of the workload's fixed (unseeded) tasks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 11


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "idals", "__init__.py")):
        sys.stderr.write("perfbench: src/idals not found; run from the root of an idals "
                         "checkout\n")
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]


def _commit():
    """The checked-out commit when ROOT is a git work tree, else None."""
    try:
        # the ceiling keeps git from reporting an enclosing repository
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "seed": seed, "commit": _commit(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def measure_setup(workload: str, seed: int, reference) -> tuple:
    """Median set-up time over fresh interpreters (see setup_probe.py), raw
    and scaled by the reference runs just before and after each probe."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times, scaled = [], []
    before = reference.timed()[0]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        after = reference.timed()[0]
        times.append(float(done.stdout.split()[-1]))
        scaled.append(times[-1] * 2 * reference.REF_SECONDS / (before + after))
        before = after
    return statistics.median(times), statistics.median(scaled)


class Pass:
    """Wall and CPU time, output and error of each task in one pass over the
    task list, and the (wall, CPU) times of the reference runs made during
    it: task i ran between reference runs ref_before[i] and ref_before[i] + 1."""

    __slots__ = ("times", "cpus", "outputs", "errors", "refs", "ref_before")

    def __init__(self, n):
        self.times = [0.0] * n
        self.cpus = [0.0] * n
        self.outputs = [None] * n
        self.errors = [None] * n
        self.refs = []
        self.ref_before = [0] * n

    def scaled(self, ref_seconds) -> tuple:
        """Each task's (wall, CPU) time at the reference speed: multiplied by
        ref_seconds over the mean (wall, CPU) time of the reference runs just
        before and just after the task."""
        walls, cpus = [], []
        for t, c, k in zip(self.times, self.cpus, self.ref_before):
            (w0, c0), (w1, c1) = self.refs[k], self.refs[k + 1]
            walls.append(t * 2 * ref_seconds / (w0 + w1))
            cpus.append(c * 2 * ref_seconds / (c0 + c1))
        return walls, cpus


def run_pass(tasks, reference, tracer=None) -> Pass:
    """One pass over the task list.  The reference runs before the first task,
    after the last, and after every task that ends REF_EVERY seconds or more
    after the previous reference run."""
    p = Pass(len(tasks))
    gc.collect()
    clock, cpu_clock = time.perf_counter, time.process_time
    p.refs.append(reference.timed())
    last = clock()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        p.ref_before[i] = len(p.refs) - 1
        c0, t0 = cpu_clock(), clock()
        try:
            p.outputs[i] = task.run()
        except Exception as exc:  # a failing task is counted, never fatal
            p.errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        p.times[i], p.cpus[i] = t1 - t0, cpu_clock() - c0
        if t1 - last >= reference.REF_EVERY or i == len(tasks) - 1:
            p.refs.append(reference.timed())
            last = clock()
    return p


class Checker:
    """Collects the outputs of every pass for the oracles.  Only distinct
    outputs of a task are kept, so memory does not grow with the number of
    passes and peak RSS measures the workload, not the bookkeeping."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.distinct = [[] for _ in tasks]   # per task: [output, times seen]
        self.raised = []

    def add(self, p: Pass):
        for i, task in enumerate(self.tasks):
            if p.errors[i] is not None:
                self.raised.append(f"{task.name}: raised {p.errors[i]}")
                continue
            out = p.outputs[i]
            seen = next((entry for entry in self.distinct[i] if entry[0] == out), None)
            if seen is None:
                self.distinct[i].append([out, 1])
            else:
                seen[1] += 1
        p.outputs = None

    def failures(self) -> list:
        """One message per failing task execution."""
        failures = list(self.raised)
        for task, entries in zip(self.tasks, self.distinct):
            for out, times in entries:
                try:
                    msg = task.check(out)
                except Exception as exc:
                    msg = f"oracle raised {type(exc).__name__}: {exc}"
                if msg is not None:
                    failures += [f"{task.name}: {msg}"] * times
        return failures


class Scaled:
    """The times of a run's passes at the reference speed: the wall and CPU
    time of each pass (the sums over its tasks) and each task's median wall
    time over the passes."""

    def __init__(self, passes, ref_seconds):
        scaled = [p.scaled(ref_seconds) for p in passes]
        self.wall = [sum(walls) for walls, _ in scaled]
        self.cpu = [sum(cpus) for _, cpus in scaled]
        self.task = [statistics.median(walls[i] for walls, _ in scaled)
                     for i in range(len(passes[0].times))]
        self.wall_scale = [w / sum(p.times) for w, p in zip(self.wall, passes)]


def end_to_end(run: Scaled, setup_s: float, rss_mb: float) -> dict:
    return {
        "wall_s": (statistics.median(run.wall), "s"),
        "cpu_s": (statistics.median(run.cpu), "s"),
        "task_p50_ms": (statistics.median(run.task) * 1000, "ms"),
        "task_p90_ms": (statistics.quantiles(run.task, n=10)[8] * 1000, "ms"),
        "slowest_task_s": (max(run.task), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(untraced: Scaled, traced: Scaled, traced_metrics) -> dict:
    """The per-layer metrics of the fastest traced pass, times scaled to the
    reference speed, plus trace_overhead."""
    best = min(range(len(traced.wall)), key=traced.wall.__getitem__)
    out = {k: (v * traced.wall_scale[best] if u == "s" else v, u)
           for k, (v, u) in traced_metrics[best].items()}
    out["trace_overhead"] = (statistics.median(traced.wall) / statistics.median(untraced.wall),
                             "ratio")
    return out


def fixed_task_times(tasks, run: Scaled) -> dict:
    return {t.name: round(med, 6) for t, med in zip(tasks, run.task) if not t.seeded}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[2].strip())
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = environment(args.seed)
    _require_source()
    from perfbench import tracer as tracing
    from perfbench import workloads
    from perfbench import reference

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; have "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    tasks = workloads.make_tasks(args.workload, inputs)
    setup_raw_s, setup_s = (None, None) if args.trace else \
        measure_setup(args.workload, args.seed, reference)

    untraced, traced, traced_metrics = [], [], []
    checker = Checker(tasks)
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    while True:
        untraced.append(run_pass(tasks, reference))
        checker.add(untraced[-1])
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                traced.append(run_pass(tasks, reference, tracer))
            report_bytes = workloads.report_bytes(tasks, traced[-1].outputs)
            checker.add(traced[-1])
            traced_metrics.append(tracing.layer_metrics(tracer, len(tasks)))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds:
            break
    scaled = Scaled(untraced, reference.REF_SECONDS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    failures = checker.failures()
    for msg in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {msg}\n")
    if tracer is not None:
        if tracer.missing:
            sys.stderr.write(f"perfbench: entry points not found: {tracer.missing}\n")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "tasks": [t.name for t in tasks]})
        metrics = per_layer(scaled, Scaled(traced, reference.REF_SECONDS), traced_metrics)
        metrics["cli.report_bytes"] = (report_bytes, "B")
    else:
        metrics = end_to_end(scaled, setup_s, rss_mb)

    attempted = len(tasks) * len(passes)
    record = {"record": {"workload": args.workload, "env": env, "tasks": len(tasks),
                         "untraced_passes": len(untraced), "traced_passes": len(traced),
                         "reference_runs": sum(len(p.refs) for p in passes),
                         "pass_wall_scale": [round(s, 4) for s in scaled.wall_scale],
                         "setup_raw_s": setup_raw_s,
                         "pass_wall_s": [round(sum(p.times), 4) for p in untraced],
                         "failed_frac": len(failures) / attempted,
                         "fixed_task_s": fixed_task_times(tasks, scaled)}}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
