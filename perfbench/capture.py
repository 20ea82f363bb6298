"""Pin the expected outputs of every workload variant into golden/<workload>.json.

    python3 perfbench/capture.py [WORKLOAD ...]

Run from the root of a ratiolab checkout whose outputs are known to be
right: the files in golden/ were captured from the seed code.  Each variant
is captured twice in fresh interpreters and must agree with itself.
Operations checked only by invariants are not pinned.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def capture(wl) -> dict:
    outputs = {}
    env = run.child_env()
    for variant in range(workloads.VARIANTS):
        seen = []
        for attempt in range(2):
            result, error, _ = run.run_child(run.worker_argv(wl, variant, "capture", attempt), env)
            if result is None:
                raise SystemExit(f"{wl.name} variant {variant}: {error}")
            bad = [op["uid"] for op in result["ops"] if op["pinned"] and op["status"] != "ok"]
            if bad:
                raise SystemExit(f"{wl.name} variant {variant}: pinned operations failed: {bad}")
            seen.append(result["captured"])
        if seen[0] != seen[1]:
            raise SystemExit(f"{wl.name} variant {variant}: two captures differ")
        for uid, observed in seen[0].items():
            if outputs.setdefault(uid, observed) != observed:
                raise SystemExit(f"{wl.name}: {uid} differs between variants")
        print(f"{wl.name} variant {variant}: {len(seen[0])} outputs", file=sys.stderr)
    return {"outputs": outputs}


def main() -> int:
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        payload = capture(wl)
        with open(run.HERE / "golden" / f"{wl.name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
