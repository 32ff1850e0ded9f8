"""Every CLI report of the benchmark's command list, byte for byte against
the captured reports in `perfbench/data/golden_cli.json` (read, never
rewritten here)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
GOLDEN = json.loads((ROOT / "perfbench" / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv", WORKLOADS.CLI_COMMANDS, ids=" ".join)
def test_report_matches_golden(argv):
    want = GOLDEN[" ".join(argv)]
    code, report = WORKLOADS.run_cli(argv)
    assert code == want["code"]
    assert report == want["report"]
