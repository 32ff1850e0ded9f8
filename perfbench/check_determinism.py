"""Check that the count-type per-layer metrics do not depend on hash seeds.

    python3 perfbench/check_determinism.py [--seed N] [--workload NAME ...]

Runs one traced pass of each workload under PYTHONHASHSEED=1 and =2 and
compares every per-layer metric that is not a time (nor trace_overhead,
a ratio of times).  Prints each metric that differs and exits 1 if any does.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", "1"], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run failed: {done.stderr.strip()}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s" and k != "trace_overhead"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="count metrics across PYTHONHASHSEED values")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    differing = 0
    for workload in args.workload or WORKLOADS:
        a = traced_counts(workload, args.seed, "1")
        b = traced_counts(workload, args.seed, "2")
        bad = sorted(k for k in a if a[k] != b.get(k))
        differing += len(bad)
        print(f"{workload}: {len(a)} count metrics, {len(bad)} differ")
        for k in bad:
            print(f"  {k}: {a[k]} (PYTHONHASHSEED=1) vs {b.get(k)} (PYTHONHASHSEED=2)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
