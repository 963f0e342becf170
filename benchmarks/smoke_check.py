"""Smoke check of the benchmark harness at tiny sizes.

Runs every workload of perf.py, listed in BENCHMARK.json or not, once
untraced and twice traced with ``perf.py --smoke`` (a few seconds
each). Checks that the last line of output is a result with exactly
the metrics BENCHMARK.json names, that every operation succeeded, and
that traced counts repeat exactly from one traced run to the next.
Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark's
own files.

    python3 benchmarks/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from perf import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "B")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, names: list[str], label: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{label}: not correct: {result}\n{proc.stderr}")
    if sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"{label}: metric names differ from BENCHMARK.json")
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    for workload in WORKLOADS:
        metrics = check_result(run(ROOT, workload, 0), end_to_end, f"{workload} untraced")
        if not all(m["value"] > 0 for m in metrics.values()):
            raise SystemExit(f"{workload}: an end-to-end metric is not positive")
        first = check_result(run(ROOT, workload, 1), per_layer, f"{workload} traced")
        second = check_result(run(ROOT, workload, 1), per_layer, f"{workload} traced")
        moved = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if moved:
            raise SystemExit(f"{workload}: traced counts differ between runs: {moved}")
        print(f"ok {workload}")

    scratch = ROOT / "benchmarks" / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        for workload in WORKLOADS:
            proc = run(bare, workload, 0)
            if proc.returncode == 0 or '"metrics"' in proc.stdout:
                raise SystemExit(f"{workload}: ran without the lipem sources")
        print("ok refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
