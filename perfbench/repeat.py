"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload hom-chain [--seeds 1-10]
        [--seconds 35] [--trace 0|1] [--out FILE]

Prints, for every metric, the median over the runs, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median (the run-to-run spread that each end-to-end bound must exceed).
With --trace 0 it also gives the median time of each fixed task.
`--out` merges the summary into a JSON file under
[workload]["trace0" | "trace1"], which is how `perfbench/baseline.json`
was written.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark metrics over several seeds")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    values: dict = {}
    units: dict = {}
    fixed: dict = {}
    failed = attempted = 0
    env = None
    for seed in args.seeds:
        record, result = run_once(args.workload, seed, args.seconds, args.trace)
        env = env or record["env"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, t in record["fixed_task_s"].items():
            fixed.setdefault(name, []).append(t)
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        line += (f" scale={statistics.median(record['pass_wall_scale']):.3f}"
                 f" setup_raw_s={record['setup_raw_s']}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}",
              flush=True)

    summary = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} of {attempted} tasks failed")
    for name, s in summary.items():
        print(f"  {name:32s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                data = json.load(fh)
        entry = {"seconds": args.seconds, "seeds": args.seeds, "failed": failed,
                 "attempted": attempted, "commit": env["commit"], "python": env["python"],
                 "nproc": env["nproc"], "cpu": cpu_model(), "metrics": summary}
        if not args.trace:
            entry["fixed_task_s"] = {k: statistics.median(v) for k, v in fixed.items()}
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = entry
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
