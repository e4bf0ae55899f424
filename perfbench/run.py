"""Run one benchmark workload against monocomp and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout that holds this
directory and from nowhere else.  Workloads: exact, sampling, dense-host,
sparse-host, cli (``all`` runs each in a fresh process, one after another).

Load model: a closed loop in this one process, each call starting after the
previous one returned; only the w2 probes of ``exact`` and the ``--workers 2``
command of ``cli`` use two worker processes.  MONO_WORKERS is cleared.

A run sets up its inputs (several times, for the median ``setup_s``), then
repeats passes over the workload's calls until ``--seconds`` have gone by
(at least one pass), checking every result.  With ``--trace 1`` the first
pass runs untraced and the rest record spans; the run reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last stdout line is the result object; the line
before it is a report with the run's environment and every workload metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import monocomp.cli; "
    "print(time.perf_counter() - t)"
)
NAMES = ("exact", "sampling", "dense-host", "sparse-host", "cli")
# workload metrics that the traced run repeats next to the per-layer ones
PER_LAYER_SUMMARY = ("nodes_examined", "samples_per_s", "cmd_p50_ms", "cmd_tail_ms")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import monocomp from this checkout's src/, or stop."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import monocomp
    except ImportError as exc:
        fail(f"cannot import monocomp from {src}: {exc}")
    if not Path(monocomp.__file__).resolve().is_relative_to(src):
        fail(f"monocomp was imported from {monocomp.__file__}, not from {src}")
    return monocomp


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MONO_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(workload, env) -> float:
    """Median over repeats of (import in a fresh interpreter + input
    generation in this one)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        start = time.perf_counter()
        workload.setup()
        times.append(float(out.stdout) + time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(name: str) -> float:
    # cli commands run in child processes; every other workload runs here
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def layer_metrics(workload, rec) -> dict:
    """Per-layer metrics from the spans of the traced passes."""
    from recorder import self_times

    by_name: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {}
    own = self_times(rec.spans)
    passes = 0
    for s in rec.spans:
        name = s["name"]
        passes += name == "pass"
        layer = name.split(".")[0] if "." in name and ":" not in name else "bench"
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s["id"]]
        if layer != "bench":
            by_name.setdefault(name, []).append(s["end"] - s["start"])
    out = workload.layer_metrics(by_name, rec)
    for layer, seconds in layer_self.items():
        out[f"self.{layer}.s"] = seconds / passes
    return out


def run_workload(args, spec) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    from recorder import Recorder
    from workloads import WORKLOADS

    env = program_env()
    os.environ.pop("MONO_WORKERS", None)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ctx = SimpleNamespace(root=ROOT, tmpdir=tmp, env=env)
        workload = WORKLOADS[args.workload](args.seed, args.smoke, ctx)
        setup_s = measure_setup(workload, env)
        if args.workload == "cli":
            workload.warm_up()  # fills the bytecode cache; untimed
        size = "smoke" if args.smoke else "full"
        ref_path = HERE / "reference.json"
        references = json.loads(ref_path.read_text())
        reference = references.get(args.workload, {}).get(size, {})

        rec = Recorder()
        walls: dict[bool, list[float]] = {False: [], True: []}
        calls_s: list[float] = []  # untraced passes: seconds inside calls
        rels: list[float] = []  # the same in reference-kernel units
        verdicts: dict[str, bool] = {}
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and bool(walls[False])
            rec.tracing = traced
            rec.start_pass()
            gc.collect()  # every pass starts from the same heap state
            t0 = time.perf_counter()
            with rec.span("pass"):
                workload.run_pass(rec)
            seconds, rel = rec.end_pass()
            walls[traced].append(time.perf_counter() - t0)
            if not traced:
                calls_s.append(seconds)
                rels.append(rel)
            if args.record:
                references.setdefault(args.workload, {})[size] = workload.pinned(rec.results)
                ref_path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
                print(f"recorded {args.workload}/{size} references in {ref_path}")
                return 0
            for name, ok in workload.check_pass(rec.results, reference).items():
                attempted += 1
                failed += not ok
                verdicts[name] = verdicts.get(name, True) and ok
            elapsed = time.perf_counter() - started
            if elapsed >= args.seconds and (not args.trace or walls[True]):
                break
        peak_rss = peak_rss_mb(args.workload)  # before the oracles allocate
        for name, ok in workload.crosscheck(rec.results).items():
            attempted += 1
            failed += not ok
            verdicts[name] = ok

        summary = workload.summary(rec)
        wall_s = statistics.median(calls_s)
        e2e = {
            "setup_s": setup_s,
            "wall_ref": statistics.median(rels),
            "peak_rss_mb": peak_rss,
        }
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "size": size,
            "pass_walls_s": walls[False] + walls[True],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0],
            "metrics": {**e2e, "wall_s": wall_s, **summary, "fail_ratio": failed / attempted},
            "failed_checks": sorted(n for n, ok in verdicts.items() if not ok),
        }
        if args.trace:
            metrics = layer_metrics(workload, rec)
            metrics.update({k: v for k, v in summary.items() if k in PER_LAYER_SUMMARY})
            traced_wall = statistics.median(walls[True])
            metrics["trace.overhead_s"] = traced_wall - statistics.median(walls[False])
            metrics["wall_s"] = wall_s
            report["traced_pass_s"] = traced_wall
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"report": report, "spans": rec.spans}))
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            declared = spec["per_layer"]
        else:
            metrics = e2e
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}")
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric the workload does not exercise reads 0
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    correct, attempted, failed = True, 0, 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(lines[-2])
        print(json.dumps({"workload": name, **result}))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small instances, for smoke.py")
    parser.add_argument("--record", action="store_true",
                        help="pin this workload's deterministic results in reference.json")
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
