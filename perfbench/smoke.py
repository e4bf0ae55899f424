"""Smoke test of the benchmark itself, on small instances.

    python3 perfbench/smoke.py

Runs every workload at smoke size with tracing off and on, and checks that
each run exits 0, passes every reference check, and emits every metric
declared in BENCHMARK.json with its unit.  Then checks that a copy holding
only BENCHMARK.json and the benchmark's files, without the program, exits
non-zero without printing a result.  None of these numbers is reported.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {
    "exact": ["nodes_examined"],
    "sampling": ["samples_per_s"],
    "cli": ["cmd_p50_ms", "cmd_tail_ms", "cmd_tail_percentile", "cmd_samples"],
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180, check=False)


def check_workload(name: str, trace: int) -> list[str]:
    proc = run(["perfbench/run.py", "--workload", name, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--smoke"])
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed: {report['failed_checks']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metric names or units differ from BENCHMARK.json")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    wanted = ["setup_s", "wall_s", "peak_rss_mb", "fail_ratio"] + REPORTED.get(name, [])
    missing = [m for m in wanted if m not in report["metrics"]]
    if missing or report["metrics"]["fail_ratio"] != 0:
        problems.append(f"{where}: report lacks {missing} or has failures")
    if trace and "trace.overhead_s" not in result["metrics"]:
        problems.append(f"{where}: no tracing overhead")
    return problems


def check_without_program() -> list[str]:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["perfbench/run.py", "--workload", "exact", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a copy without the program did not fail"]
    return []


def main() -> int:
    problems = check_without_program()
    for name in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            problems += check_workload(name, trace)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
