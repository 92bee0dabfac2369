"""Smoke run of the benchmark itself at tiny sizes.

    python3 perfbench/smoke.py

Checks that `BENCHMARK.json` lists the metrics the benchmark reports, then
runs every workload briefly with tracing off and on, and asserts that each
run exits 0, that its last line carries every end-to-end (untraced) or
per-layer (traced) metric by name with its unit, that no instance failed,
and that the output digest is the same in both runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    got = {name: metric["unit"] for name, metric in last["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: metrics {sorted(got)}"
    assert "failed_ratio = 0 ratio" in proc.stdout, proc.stdout
    digest = next(line for line in lines if line.startswith("output_digest = "))
    return last, digest


def check_manifest():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == tracing.PER_LAYER


def main() -> int:
    check_manifest()
    for workload in sorted(workloads.WORKLOADS):
        _, plain = smoke(workload, 0)
        _, traced = smoke(workload, 1)
        assert plain == traced, f"{workload}: answers differ between traced and untraced runs"
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
