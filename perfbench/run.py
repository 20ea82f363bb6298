"""The ratiolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ratiolab checkout.  Each repeat of the workload runs
in a fresh interpreter (perfbench/worker.py), one at a time, so set-up and
the package's module-level caches start cold as they do for a CLI user.
Each repeat is pinned to the CPU that is fastest just before it starts.
Repeats start until the next one would end after --seconds, and at least the
workload's minimum count run.  The seed picks the input variant (seed modulo
16); every repeat of a run uses the same inputs.

--trace 0 prints the end-to-end metrics of untraced repeats.  Their times
are in ref units (metrics.reference_s), which follow the host's changes of
speed; set-up time is in seconds at the nominal reference speed.  --trace 1
alternates untraced and traced repeats and prints the per-layer metrics of
the traced ones, with the tracing overhead against the untraced ones.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds the details: environment, noise, every repeat,
the exact counts, raw seconds and the percentile reported as unit_ref_p90.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150


def read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.strip()
    except OSError:
        pass
    return ""


def pin_fastest_cpu(cpus: list[int]) -> tuple[int, list[float]]:
    """Pin this process, and so the next child, to the CPU that runs the
    reference loop fastest right now.

    The host's virtual CPUs slow down independently of each other for
    seconds at a time; a repeat started on the faster one is less likely to
    run inside such a slowdown.
    """
    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds.append(1e3 * metrics.reference_s())
    best = cpus[speeds.index(min(speeds))]
    os.sched_setaffinity(0, {best})
    return best, speeds


def snapshot() -> dict:
    return {
        "loadavg": read_first("/proc/loadavg"),
        "cpu_mhz": read_first("/proc/cpuinfo", "cpu MHz").partition(":")[2].strip(),
        "reference_ms": [round(1e3 * metrics.reference_s(), 3) for _ in range(7)],
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("RATIOLAB_GUARD_N", None)
    return env


def run_child(argv: list[str], env: dict) -> tuple[dict | None, str, float]:
    """Run one child to completion; (parsed last stdout line or None, error, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: {' | '.join(tail)}", elapsed
    return json.loads(lines[-1]), "", elapsed


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics 'inclusive' method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def worker_argv(wl, variant: int, mode: str, index: int) -> list[str]:
    workdir = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{index}"
    return [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
            "--variant", str(variant), "--mode", mode, "--workdir", str(workdir)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    missing = [p for p in (ROOT / "src" / "ratiolab" / "__init__.py", HERE / "golden" / f"{wl.name}.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a ratiolab checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    variant = args.seed % workloads.VARIANTS
    env = child_env()
    before = snapshot()
    detail: dict = {
        "workload": wl.name, "seed": args.seed, "variant": variant, "trace": args.trace,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "before": before,
    }
    # Compile the package's bytecode once so no repeat pays for it.
    warm, error, _ = run_child([sys.executable, "-c", "import ratiolab.cli; print('{}')"], env)
    if warm is None:
        detail["error"] = f"import ratiolab failed: {error}"
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    schedule = ["timed"] if args.trace == 0 else ["timed", "traced"]
    # Two traced repeats at least, so their exact counts can be compared.
    minimum = {"timed": wl.min_repeats if args.trace == 0 else 1, "traced": 2}
    repeats: dict[str, list[dict]] = {"timed": [], "traced": []}
    durations: dict[str, list[float]] = {"timed": [], "traced": []}
    loads = []
    pinned = []
    cpus = sorted(os.sched_getaffinity(0))
    errors = []
    start = time.perf_counter()
    index = 0
    while True:
        mode = schedule[index % len(schedule)]
        done = all(len(repeats[m]) >= minimum[m] for m in schedule)
        expected = statistics.median(durations[mode]) if durations[mode] else 0.0
        if done and time.perf_counter() - start + expected > args.seconds:
            break
        cpu, speeds = pin_fastest_cpu(cpus)
        pinned.append({"cpu": cpu, "probe_ms": [round(x, 3) for x in speeds]})
        result, error, elapsed = run_child(worker_argv(wl, variant, mode, index), env)
        index += 1
        durations[mode].append(elapsed)
        loads.append(read_first("/proc/loadavg").split(" ")[0])
        if result is None:
            errors.append(f"{mode} repeat {index}: {error}")
            break
        repeats[mode].append(result)
    detail["measured_s"] = round(time.perf_counter() - start, 3)
    detail["loadavg_1m_per_repeat"] = loads
    detail["cpu_per_repeat"] = pinned
    detail["after"] = snapshot()

    # A repeat that crashed is one attempted and failed operation of its own.
    attempted = failed = len(errors)
    mismatches = []
    failures = []
    op_lists = set()
    for mode in schedule:
        for rep in repeats[mode]:
            op_lists.add(tuple((op["uid"], op["status"]) for op in rep["ops"]))
            for op in rep["ops"]:
                attempted += 1
                if op["status"] != "ok":
                    failed += 1
                    (mismatches if op["status"] == "mismatch" else failures).append(
                        f"{op['uid']}: {op['error']}")
    if len(op_lists) > 1:
        errors.append("operations or their outcomes differ between repeats")
    detail["failed_ops"] = sorted(set(failures))
    detail["mismatched_ops"] = sorted(set(mismatches))

    timed = repeats["timed"]
    unit_ops = [op for rep in timed for op in rep["ops"] if op["unit"]]
    units_ref = [op["s"] / op["ref_s"] for op in unit_ops]
    units_ms = [1e3 * op["s"] for op in unit_ops]
    q90 = workloads.unit_quantile(wl)
    detail["units"] = {"per_repeat": wl.units_per_repeat, "total": len(unit_ops),
                       "unit_ref_p90_percentile": round(100 * q90, 2)}
    detail["timed_repeats"] = [
        {"setup_s": round(rep["setup_s"], 6), "wall_s": round(rep["wall_s"], 6),
         "wall_ref": round(rep["wall_ref"], 3), "rss_kb": rep["rss_kb"],
         "reference_ms_median": round(statistics.median(rep["reference_ms"]), 4)}
        for rep in timed
    ]
    out_metrics: dict = {}
    if args.trace == 0 and timed:
        detail["seconds"] = {
            "setup_s": statistics.median(rep["setup_s"] for rep in timed),
            "wall_s": statistics.median(rep["wall_s"] for rep in timed),
            "unit_ms_p50": percentile(units_ms, 0.5),
            "unit_ms_p90": percentile(units_ms, q90),
        }
        values = {
            "setup_s": statistics.median(rep["setup_ref"] for rep in timed) * metrics.REFERENCE_NOMINAL_S,
            "wall_ref": statistics.median(rep["wall_ref"] for rep in timed),
            "unit_ref_p50": percentile(units_ref, 0.5),
            "unit_ref_p90": percentile(units_ref, q90),
            "peak_rss_mb": statistics.median(rep["rss_kb"] for rep in timed) / 1024,
        }
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics.END_TO_END}
    if args.trace == 1 and timed and repeats["traced"]:
        traced = repeats["traced"]
        per_repeat = [metrics.layer_values(rep["trace"]) for rep in traced]
        counts = [metrics.exact_counts(rep["trace"]) for rep in traced]
        if any(c != counts[0] for c in counts):
            errors.append("exact counts differ between traced repeats")
        detail["exact_counts"] = counts[0]
        detail["self_time_sums_s"] = [metrics.self_time_sums(rep["trace"]) for rep in traced]
        detail["predictions"] = metrics.predictions(wl.name)
        detail["traced_repeats"] = [{"wall_s": round(rep["wall_s"], 6), "spans": rep["trace"]["spans"]}
                                    for rep in traced]
        timed_wall = statistics.median(rep["wall_s"] for rep in timed)
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        values = {name: statistics.median(v[name] for v in per_repeat) for name in per_repeat[0]}
        # Counts are identical across traced repeats; report them as integers.
        values.update({m.name: per_repeat[0][m.name] for m in metrics.PER_LAYER if m.unit == "count"})
        values["trace.overhead_share"] = (traced_wall - timed_wall) / timed_wall
        out_metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics.PER_LAYER}
    detail["errors"] = errors
    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass

    correct = not errors and not mismatches and bool(out_metrics)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
