"""The benchmark's tracer still installs over the package's entry points.

perfbench/tracing.py rebinds named module attributes and requires every
listed owner to hold the same object; it runs in a subprocess so that the
rebinding never reaches this test process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from fractions import Fraction
import tracing
import ratiolab.cli  # install() needs every traced owner imported, as perfbench's worker does
from ratiolab import game, optimize, oracles
from ratiolab.instances import DecreasingInstance, IncreasingInstance
from ratiolab.sets import Subset
tracer = tracing.Tracer()
tracing.install(tracer)
"""

EVALUATIONS = """
inst = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 8))
f, g = oracles.make_oracles(inst)
assert oracles.ratio(inst.plant, f, g) == Fraction(1, 5)
calls = tracer.summary()["calls"]
assert calls.get("oracles.make_oracles") == 1, calls
assert calls.get("oracles.instance_evaluator") == 2, calls
assert calls.get("oracles.eval") == 2, calls
print("traced")
"""

# Every g evaluation of the search is recorded by the g handle, inside the
# search's ratio call, and the plant search runs once for the one trial.
GAME_TRIAL = """
algorithm = optimize.make_algorithm("random", 20)
[report] = game.run_game_increasing(algorithm, IncreasingInstance(8, 100, Fraction(1, 4)), 0, 1)
assert report.queries == 40 and not report.distinguished, report
summary = tracer.summary()
calls, by_parent = summary["calls"], summary["calls_by_parent"]
assert calls.get("oracles.ratio") == 20, calls
assert calls.get("oracles.record") == 20, calls
assert by_parent.get("oracles.record<oracles.ratio") == 20, by_parent
assert calls.get("game.find_consistent_plant") == 1, calls
print("traced")
"""

# A brute solve evaluates f/g once per nonempty set, each through one call
# of the traced per-query evaluation.
BRUTE_SOLVE = """
inst = IncreasingInstance(6, 100, Fraction(1, 4), plant=Subset.from_elements([0, 2, 4], 6))
f, g = oracles.make_oracles(inst)
result = optimize.brute_force_min_ratio(f, g, 6)
assert result.argset == inst.plant and result.queries_used == 2 * 63, result
by_parent = tracer.summary()["calls_by_parent"]
assert tracer.summary()["calls"].get("oracles.ratio") == 63, by_parent
assert by_parent.get("oracles.ratio<optimize.brute_force_min_ratio") == 63, by_parent
print("traced")
"""

# Every evaluation of a local-search trial is one traced ratio call, and the
# g handle records its set inside that call.
LOCAL_TRIAL = """
algorithm = optimize.make_algorithm("local", 200)
[report] = game.run_game_increasing(algorithm, IncreasingInstance(8, 100, Fraction(1, 4)), 4, 1)
evaluations = report.queries // 2
assert evaluations > 8, report
summary = tracer.summary()
calls, by_parent = summary["calls"], summary["calls_by_parent"]
assert calls.get("oracles.ratio") == evaluations, calls
assert by_parent.get("oracles.ratio<optimize.local_search") == evaluations, by_parent
assert calls.get("oracles.record") == evaluations, calls
assert by_parent.get("oracles.record<oracles.ratio") == evaluations, by_parent
print("traced")
"""


def _run_traced(body: str) -> None:
    code = PRELUDE.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench")) + body
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "traced"


def test_tracer_installs_and_records_evaluations():
    _run_traced(EVALUATIONS)


def test_tracer_sees_every_recorded_query_of_a_game_trial():
    _run_traced(GAME_TRIAL)


def test_tracer_sees_one_ratio_call_per_brute_evaluation():
    _run_traced(BRUTE_SOLVE)


def test_tracer_sees_one_ratio_call_and_record_per_local_evaluation():
    _run_traced(LOCAL_TRIAL)
