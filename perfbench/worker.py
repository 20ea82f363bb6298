"""One repeat of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --variant V --mode timed|traced|capture

run.py starts this with PYTHONPATH pointing at the checkout's src/.  Set-up
time runs from just before `import ratiolab` to the first timed call.  In
timed mode nothing of ratiolab is wrapped, and a reference sample before
each operation gives the operations their times in ref units.  In traced
mode tracing.install() rebinds the package's entry points right after the
import, and the repeat reports per-layer self times and exact counts.  In
capture mode the repeat prints every operation's observed output for
golden/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import metrics
import workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def normalise(value):
    """The JSON round trip of a value, so tuples and lists compare equal."""
    return json.loads(json.dumps(value))


def check(op, result, error: str | None, golden: dict | None) -> tuple[str, str | None]:
    """(status, reason) of one operation.

    "failed": an operation without a pinned output raised or broke its
    invariant.  "mismatch": an operation with a pinned output raised or
    produced something else.  golden is None in capture mode.
    """
    if op.invariant is not None or golden is None:
        if error is None and op.invariant is not None and golden is not None:
            error = op.invariant(normalise(op.observe(result)))
        return ("ok", None) if error is None else ("failed", error)
    if error is None and golden.get(op.uid) != normalise(op.observe(result)):
        error = "output differs from the pinned output"
    return ("ok", None) if error is None else ("mismatch", error)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "capture"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    golden = None
    if args.mode != "capture":
        with open(GOLDEN_DIR / f"{wl.name}.json", encoding="utf-8") as fh:
            golden = json.load(fh)["outputs"]
    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()

    # Reference samples in seconds: one before set-up, one before each
    # operation and one after the last; timed mode only.
    samples: list[float] = []

    def sample() -> None:
        if args.mode == "timed":
            samples.append(metrics.reference_s())

    sample()
    t0 = time.perf_counter()
    m = workloads.load()
    if tracer is not None:
        tracing.install(tracer)
    ops = wl.build(m, args.variant, args.workdir)
    t1 = time.perf_counter()

    records = []
    captured = {}
    with tracer.span(tracing.ROOT) if tracer else nullcontext():
        for op in ops:
            sample()
            error = result = None
            start = time.perf_counter()
            with tracer.span(tracing.UNIT) if tracer else nullcontext():
                try:
                    result = op.fn()
                except Exception as exc:  # an operation that raises is a failed operation
                    error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_unit()
            if args.mode == "capture" and error is None and op.invariant is None:
                captured[op.uid] = normalise(op.observe(result))
            status, error = check(op, result, error, golden)
            records.append({"uid": op.uid, "unit": op.unit, "pinned": op.invariant is None,
                            "s": end - start, "seg_s": time.perf_counter() - start,
                            "status": status, "error": error})
    sample()
    shutil.rmtree(args.workdir, ignore_errors=True)

    # A step's ref is the mean of the samples just before and after it;
    # set-up is followed by the first operation's sample.
    if samples:
        for i, rec in enumerate(records, start=1):
            rec["ref_s"] = (samples[i] + samples[i + 1]) / 2
    out = {
        "mode": args.mode,
        "setup_s": t1 - t0,
        "wall_s": sum(rec["seg_s"] for rec in records),
        "ops": records,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if samples:
        out["setup_ref"] = (t1 - t0) / ((samples[0] + samples[1]) / 2)
        out["wall_ref"] = sum(rec["seg_s"] / rec["ref_s"] for rec in records)
        out["reference_ms"] = [1e3 * s for s in samples]
    if args.mode == "capture":
        out["captured"] = captured
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
