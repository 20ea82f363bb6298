"""Every metric the benchmark reports, with its unit, direction and prediction.

END_TO_END metrics come from the timed run (--trace 0); PER_LAYER metrics
from the traced run (--trace 1).  End-to-end times are in "ref" units (see
reference_s); set-up time is in seconds at the nominal reference speed.  Each per-layer metric names the end-to-end
metric and workload it should move (`moves`) and the workloads on which it
is predicted not to move (`still`).  BENCHMARK.json lists the same names,
units and directions.

Per-layer conventions: a *_us metric is mean self time per call of the
spans named; *_ms and *_s metrics are total self time per repeat of the
workload's fixed work, inside the work root; counts are per repeat.  A layer
that does not run on a workload reports 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

END_TO_END = [
    ("setup_s", "s", "from just before `import ratiolab` to the first timed call, in seconds at the "
                     "nominal reference speed, median of repeats"),
    ("wall_ref", "ref", "one repeat of the workload's fixed work with outputs checked, median of repeats"),
    ("unit_ref_p50", "ref", "median time of one unit over every unit of the run"),
    ("unit_ref_p90", "ref", "90th percentile unit time, or the highest percentile with ten units beyond it"),
    ("peak_rss_mb", "MB", "peak resident memory of a repeat's process, median of repeats"),
]

# Shares of the parent's median by which a metric may worsen.  Memory does
# not drift; times do (see reference_s), so they get the largest bound.
BOUNDS = {"setup_s": 0.25, "wall_ref": 0.25, "unit_ref_p50": 0.25, "unit_ref_p90": 0.25, "peak_rss_mb": 0.1}

# The reference loop's time on an unloaded 2-vCPU Xeon virtual machine with
# Python 3.11.  setup_s is set-up time in refs times this: seconds at that
# speed.  A later change must not edit it, or set-up times stop comparing.
REFERENCE_NOMINAL_S = 0.0033


def reference_s() -> float:
    """Seconds this process takes, right now, for a fixed loop of Fraction arithmetic.

    This is the "ref" unit.  A shared 2-vCPU Xeon virtual machine was seen
    to change speed by up to 2x within minutes, on both vCPUs, and a plain
    time follows it.  Each operation's time is therefore divided by the mean
    of the reference samples taken just before and just after it in the same
    process; a ref is "one reference loop at the speed the host had then".
    The loop uses the standard library's fractions module, whose speed
    moved with the workloads' (log-log slope 0.8 to 0.9); an integer-only
    loop moved 1.4 to 1.5 times less than they did.  Raw seconds are kept in
    the details.
    """
    start = time.perf_counter()
    third = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(600):
        acc = max(acc, Fraction(i, 7) - third)
    return time.perf_counter() - start


GAMES = ["game-increasing", "game-decreasing"]
ALL = ["game-increasing", "game-decreasing", "verify-grid", "cli-solve"]
LAYERS = ("sets", "sampling", "instances", "oracles", "optimize", "game", "verify", "serialize", "cli")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    spans: tuple[str, ...]
    kind: str  # how layer_values computes it from the spans named
    moves: tuple[str, ...]
    still: tuple[str, ...] = ()
    better: str = "lower"


def _m(name, unit, spans, kind, moves, still=(), better="lower"):
    return LayerMetric(name, unit, tuple(spans), kind, tuple(moves), tuple(still), better)


SEARCH = ("optimize.random_search", "optimize.local_search")
VERIFY = ("verify.check_supermodular", "verify.check_monotone", "verify.check_nonnegative")

PER_LAYER = [
    _m("sampling.draw_us", "us", ["sampling.nonempty_mask"], "per_call_us",
       ["wall_ref@game-increasing", "unit_ref_p50@game-decreasing"], ["verify-grid"]),
    _m("sampling.draws", "count", ["sampling.nonempty_mask"], "calls",
       ["wall_ref@game-increasing", "unit_ref_p50@game-decreasing"], ["verify-grid"]),
    _m("sampling.sample_mask_us", "us",
       ["sampling.sample_mask", "sampling.random_k_subset", "sampling.derive_seed"], "per_call_us",
       ["wall_ref@game-increasing", "unit_ref_p50@game-decreasing"], ["verify-grid"]),
    _m("sets.subset_build_us", "us", ["sets.Subset", "sets.unchecked_subset"], "per_call_us",
       ["wall_ref@verify-grid", "wall_ref@game-increasing"]),
    _m("oracles.eval_us", "us", ["oracles.eval"], "per_call_us",
       ["wall_ref@verify-grid", "wall_ref@game-increasing", "wall_ref@game-decreasing"]),
    _m("oracles.ratio_us", "us", ["oracles.ratio"], "per_call_us",
       ["wall_ref@game-increasing", "wall_ref@game-decreasing", "wall_ref@cli-solve"], ["verify-grid"]),
    _m("oracles.queries", "count", ["oracles.eval"], "calls",
       ["wall_ref@game-increasing", "wall_ref@game-decreasing", "wall_ref@verify-grid", "wall_ref@cli-solve"]),
    _m("oracles.distinct_share", "share", ["oracles.eval"], "distinct_share",
       ["wall_ref@verify-grid"], better="higher"),
    _m("oracles.record_us", "us", ["oracles.record"], "per_call_us",
       ["wall_ref@game-increasing", "wall_ref@game-decreasing"], ["verify-grid", "cli-solve"]),
    _m("optimize.search_self_us_per_query", "us", SEARCH, "search_per_query",
       ["wall_ref@game-increasing", "wall_ref@game-decreasing"], ["verify-grid"]),
    _m("optimize.brute_s", "s", ["optimize.brute_force_min_ratio", "optimize.brute_force_max_ratio"],
       "total_s", ["wall_ref@cli-solve"], GAMES + ["verify-grid"]),
    _m("game.plant_search_ms", "ms", ["game.find_consistent_plant"], "total_ms",
       ["unit_ref_p50@game-increasing"], ["game-decreasing", "verify-grid"]),
    _m("game.harness_self_ms", "ms", ["game.run_game_increasing", "game.run_game_decreasing"], "total_ms",
       ["unit_ref_p50@game-increasing"], ["verify-grid"]),
    _m("game.diff_scan_ms", "ms", ["game.differs_from_unplanted"], "total_ms",
       ["unit_ref_p50@game-decreasing"], ["game-increasing", "verify-grid"]),
    _m("game.union_bound_ms", "ms", ["game.union_bound", "game.distinguish_probability"], "total_ms",
       ["unit_ref_p50@game-decreasing"], ["game-increasing", "verify-grid"]),
    _m("verify.supermodular_s", "s", ["verify.check_supermodular"], "total_s",
       ["wall_ref@verify-grid"], GAMES),
    _m("verify.monotone_s", "s", ["verify.check_monotone"], "total_s",
       ["wall_ref@verify-grid"], GAMES),
    _m("verify.nonnegative_s", "s", ["verify.check_nonnegative"], "total_s",
       ["wall_ref@verify-grid"], GAMES),
    _m("verify.queries", "count", VERIFY, "verify_queries",
       ["wall_ref@verify-grid"], GAMES),
    _m("instances.build_us", "us",
       ["instances.DecreasingInstance", "instances.IncreasingInstance", "instances.with_plant",
        "instances.from_descriptor", "instances.derive_decreasing_params"], "per_call_us",
       ["setup_s@" + w for w in ALL] + ["unit_ref_p50@game-increasing", "unit_ref_p50@game-decreasing"]),
    _m("serialize.render_ms", "ms",
       ["serialize.render_csv", "serialize.render_json", "serialize.frac_to_str", "serialize.approx_str"],
       "total_ms", ["wall_ref@cli-solve"], ["verify-grid"]),
    _m("cli.self_ms", "ms", ["cli."], "layer_ms", ["wall_ref@cli-solve"], GAMES + ["verify-grid"]),
]

# Total self time of each other layer (cli.self_ms above is the cli layer's),
# so that the layer totals plus the untimed remainder add up to the traced
# wall time.
for _layer in (layer for layer in LAYERS if layer != "cli"):
    PER_LAYER.append(_m(f"{_layer}.self_ms", "ms", [f"{_layer}."], "layer_ms",
                        [f"wall_ref@{w}" for w in ALL]))

PER_LAYER += [
    _m("trace.wall_s", "s", [], "trace_wall", []),
    _m("trace.remainder_share", "share", [], "remainder_share", []),
    _m("trace.overhead_share", "share", [], "overhead_share", []),
]


def _self(summary: dict, key: str, spans) -> float:
    return sum(summary[key].get(s, 0.0) for s in spans)


def _calls(summary: dict, spans) -> int:
    return sum(summary["calls"].get(s, 0) for s in spans)


def _per_call_us(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


def layer_values(summary: dict) -> dict:
    """Per-layer metric values of one traced repeat (overhead_share excluded)."""
    out = {}
    work = summary["work_self_s"]
    by_parent = summary["calls_by_parent"]
    for metric in PER_LAYER:
        kind = metric.kind
        if kind == "per_call_us":
            value = _per_call_us(_self(summary, "self_s", metric.spans), _calls(summary, metric.spans))
        elif kind == "calls":
            value = _calls(summary, metric.spans)
        elif kind == "total_ms":
            value = 1e3 * _self(summary, "work_self_s", metric.spans)
        elif kind == "total_s":
            value = _self(summary, "work_self_s", metric.spans)
        elif kind == "layer_ms":
            prefix = metric.spans[0]
            value = 1e3 * sum(v for k, v in work.items() if k.startswith(prefix))
        elif kind == "distinct_share":
            queries = _calls(summary, metric.spans)
            value = summary["distinct"] / queries if queries else 0.0
        elif kind == "search_per_query":
            ratios = sum(by_parent.get(f"oracles.ratio<{s}", 0) for s in SEARCH)
            value = _per_call_us(_self(summary, "work_self_s", metric.spans), ratios)
        elif kind == "verify_queries":
            value = sum(by_parent.get(f"oracles.eval<{s}", 0) for s in VERIFY)
        elif kind == "trace_wall":
            value = summary["work_s"]
        elif kind == "remainder_share":
            value = (work.get("bench.work", 0.0) + work.get("bench.unit", 0.0)) / summary["work_s"]
        elif kind == "overhead_share":
            continue
        else:
            raise ValueError(f"unknown metric kind {kind}")
        out[metric.name] = value
    return out


def exact_counts(summary: dict) -> dict:
    """The counts that must repeat exactly across traced repeats."""
    by_parent = summary["calls_by_parent"]
    return {
        "oracles.queries": summary["calls"].get("oracles.eval", 0),
        "sampling.draws": summary["calls"].get("sampling.nonempty_mask", 0),
        "verify.queries": sum(by_parent.get(f"oracles.eval<{s}", 0) for s in VERIFY),
        "oracles.distinct": summary["distinct"],
        "oracles.cardinality_histogram": summary["cardinalities"],
    }


def self_time_sums(summary: dict) -> dict:
    """The traced wall time beside the sum of every layer's self time and the remainder."""
    work = summary["work_self_s"]
    layers = {name.split(".")[0] for name in work}
    unknown = layers - set(LAYERS) - {"bench"}
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    layer_s = sum(v for k, v in work.items() if not k.startswith("bench."))
    remainder_s = sum(v for k, v in work.items() if k.startswith("bench."))
    return {"traced_wall_s": summary["work_s"], "layers_s": layer_s, "remainder_s": remainder_s}


def predictions(workload: str) -> dict:
    """For each per-layer metric: the end-to-end metrics it should move on this
    workload, or "still" where it is predicted not to move."""
    out = {}
    for metric in PER_LAYER:
        moves = [m.split("@")[0] for m in metric.moves if m.endswith("@" + workload)]
        if moves:
            out[metric.name] = moves
        elif workload in metric.still:
            out[metric.name] = "still"
    return out
