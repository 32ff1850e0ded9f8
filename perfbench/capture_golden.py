"""Capture the golden CLI reports the glue-cli workload compares against.

Run from the repository root on the commit whose reports are the reference:

    python3 perfbench/capture_golden.py

It runs every command of `workloads.CLI_COMMANDS` in-process and writes the
exit code and the exact report text of each to `perfbench/data/golden_cli.json`.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402


def main():
    golden = {}
    for argv in workloads.CLI_COMMANDS:
        code, report = workloads.run_cli(argv)
        golden[" ".join(argv)] = {"code": code, "report": report}
    path = os.path.join(workloads.DATA_DIR, "golden_cli.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} reports to {path}")


if __name__ == "__main__":
    main()
