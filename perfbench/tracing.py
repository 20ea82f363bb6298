"""Span tracing of ratiolab's public functions, installed from outside the package.

`install()` rebinds module attributes, class methods and the evaluator
factory so that each call into a layer records a span (name, start, end,
parent).  Spans live in compact in-memory arrays; `summary()` turns them
into per-layer self times and counts once the traced repeat is over.  The
timed run never imports this module.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# A span name is "<layer>.<function>"; the layer is the ratiolab module whose
# work the span measures (differs_from_unplanted lives in oracles but is the
# game's difference scan, so it is charged to game).  Spans named bench.* are
# the benchmark's own code: their self time is the untimed remainder.
ROOT = "bench.work"
UNIT = "bench.unit"

# (module attribute owners, attribute name, span name).  Each owner path is
# rebound separately because `from .x import y` copies the binding.
FUNCTIONS = [
    (("sets", "optimize", "verify"), "unchecked_subset", "sets.unchecked_subset"),
    (("sampling", "game", "instances"), "random_k_subset", "sampling.random_k_subset"),
    (("sampling", "game"), "derive_seed", "sampling.derive_seed"),
    (("instances", "cli"), "instance_from_descriptor", "instances.from_descriptor"),
    (("instances", "cli"), "derive_decreasing_params", "instances.derive_decreasing_params"),
    (("oracles", "game", "cli"), "make_oracles", "oracles.make_oracles"),
    (("optimize",), "ratio", "oracles.ratio"),
    (("optimize", "cli"), "random_search", "optimize.random_search"),
    (("optimize", "cli"), "local_search", "optimize.local_search"),
    (("optimize", "cli"), "brute_force_min_ratio", "optimize.brute_force_min_ratio"),
    (("optimize",), "brute_force_max_ratio", "optimize.brute_force_max_ratio"),
    (("game", "cli"), "run_game_increasing", "game.run_game_increasing"),
    (("game", "cli"), "run_game_decreasing", "game.run_game_decreasing"),
    (("game",), "find_consistent_plant", "game.find_consistent_plant"),
    (("game",), "differs_from_unplanted", "game.differs_from_unplanted"),
    (("game", "cli"), "union_bound", "game.union_bound"),
    (("game", "cli"), "distinguish_probability", "game.distinguish_probability"),
    (("game", "cli"), "summarize_games", "game.summarize_games"),
    (("game", "cli"), "game_report_row", "game.game_report_row"),
    (("verify", "cli"), "check_supermodular", "verify.check_supermodular"),
    (("verify", "cli"), "check_monotone", "verify.check_monotone"),
    (("verify", "cli"), "check_nonnegative", "verify.check_nonnegative"),
    (("serialize", "verify"), "render_csv", "serialize.render_csv"),
    (("serialize",), "render_json", "serialize.render_json"),
    (("serialize", "cli"), "write_csv", "serialize.write_csv"),
    (("serialize", "cli"), "write_json", "serialize.write_json"),
    (("serialize", "game", "verify", "instances", "cli"), "frac_to_str", "serialize.frac_to_str"),
    (("serialize", "verify", "instances", "cli"), "frac_from_str", "serialize.frac_from_str"),
    (("serialize", "cli"), "approx_str", "serialize.approx_str"),
    (("cli",), "main", "cli.main"),
    (("cli",), "cmd_verify", "cli.cmd_verify"),
    (("cli",), "cmd_solve", "cli.cmd_solve"),
    (("cli",), "cmd_game", "cli.cmd_game"),
    (("cli",), "cmd_prob", "cli.cmd_prob"),
]

# (module, class, method, span name): methods patched on the class itself.
METHODS = [
    ("sets", "Subset", "__init__", "sets.Subset"),
    ("sampling", "SeededStream", "nonempty_mask", "sampling.nonempty_mask"),
    ("sampling", "SeededStream", "sample_mask", "sampling.sample_mask"),
    ("instances", "DecreasingInstance", "__init__", "instances.DecreasingInstance"),
    ("instances", "IncreasingInstance", "__init__", "instances.IncreasingInstance"),
    ("instances", "DecreasingInstance", "with_plant", "instances.with_plant"),
    ("instances", "IncreasingInstance", "with_plant", "instances.with_plant"),
    ("oracles", "QueryTranscript", "record", "oracles.record"),
]

EVAL = "oracles.eval"
EVALUATOR_OWNERS = ("oracles", "game")


class Tracer:
    """In-memory span store plus the exact counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.masks: list[list[int]] = []
        self.distinct = 0
        self.cardinalities: dict[int, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`."""
        nid = self.name_id(name)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_evaluator(self, closure):
        """An evaluator closure traced as oracles.eval that also logs each queried mask."""
        masks: list[int] = []
        self.masks.append(masks)
        log = masks.append
        traced = self.wrap(EVAL, closure)

        def evaluate(S):
            log(S.mask)
            return traced(S)

        return evaluate

    def end_unit(self) -> None:
        """Fold the masks each evaluator saw during the finished unit into the counts."""
        for masks in self.masks:
            self.distinct += len(set(masks))
            for mask in masks:
                self.cardinalities[mask.bit_count()] += 1
            masks.clear()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def summary(self) -> dict:
        """Self time and call count per span name, inside and outside the work root."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        parent, start, end, names = self.parent, self.start, self.end, self.name
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        root_id = self.name_ids.get(ROOT)
        in_work = bytearray(count)
        for i in range(count):
            p = parent[i]
            in_work[i] = names[i] == root_id or (p >= 0 and in_work[p])
        self_s = defaultdict(float)
        work_self_s = defaultdict(float)
        calls = defaultdict(int)
        by_parent = defaultdict(int)
        for i in range(count):
            name = self.names[names[i]]
            own = end[i] - start[i] - child[i]
            self_s[name] += own
            calls[name] += 1
            if in_work[i]:
                work_self_s[name] += own
            p = parent[i]
            by_parent[(name, self.names[names[p]] if p >= 0 else "")] += 1
        root_s = sum(end[i] - start[i] for i in range(count) if names[i] == root_id)
        return {
            "self_s": dict(self_s),
            "work_self_s": dict(work_self_s),
            "calls": dict(calls),
            "calls_by_parent": {f"{a}<{b}": c for (a, b), c in sorted(by_parent.items())},
            "work_s": root_s,
            "spans": count,
            "distinct": self.distinct,
            "cardinalities": {str(k): v for k, v in sorted(self.cardinalities.items())},
        }


def install(tracer: Tracer) -> None:
    """Rebind every traced entry point of the imported ratiolab package."""
    import importlib

    modules = {}

    def module(short: str):
        if short not in modules:
            modules[short] = importlib.import_module(f"ratiolab.{short}")
        return modules[short]

    originals = {}
    for owners, attr, span_name in FUNCTIONS:
        home = module(owners[0])
        fn = getattr(home, attr)
        if fn not in originals:
            originals[fn] = tracer.wrap(span_name, fn)
        for owner in owners:
            mod = module(owner)
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"ratiolab.{owner}.{attr} is not ratiolab.{owners[0]}.{attr}")
            setattr(mod, attr, originals[fn])
    for mod_name, cls_name, meth, span_name in METHODS:
        cls = getattr(module(mod_name), cls_name)
        setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth)))

    factory = module("oracles").instance_evaluator
    traced_factory = tracer.wrap("oracles.instance_evaluator", factory)

    def instance_evaluator(inst, role):
        return tracer.wrap_evaluator(traced_factory(inst, role))

    for owner in EVALUATOR_OWNERS:
        setattr(module(owner), "instance_evaluator", instance_evaluator)
