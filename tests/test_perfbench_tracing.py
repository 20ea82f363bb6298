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

# A search evaluates its masks in batches: each batch is one traced ratio
# call, which charges both handles and extends g's transcript by the whole
# batch without a per-mask record call.  The harness then scores the returned
# set on the trial's pair, one recorded g call.  The plant search runs once
# for the one trial.
GAME_TRIAL = """
algorithm = optimize.make_algorithm("random", 20)
[report] = game.run_game_increasing(algorithm, IncreasingInstance(8, 100, Fraction(1, 4)), 0, 1)
assert report.queries == 40 and not report.distinguished, report
summary = tracer.summary()
calls, by_parent = summary["calls"], summary["calls_by_parent"]
assert calls.get("oracles.ratio") == 1, calls
assert by_parent.get("oracles.ratio<optimize.random_search") == 1, by_parent
assert calls.get("oracles.record") == by_parent.get("oracles.record<game.run_game_increasing") == 1, calls
assert calls.get("game.find_consistent_plant") == 1, calls
print("traced")
"""

# A brute solve evaluates f/g once per nonempty set; at n = 6 its 63 sets
# are one batch, one call of the traced evaluation.
BRUTE_SOLVE = """
inst = IncreasingInstance(6, 100, Fraction(1, 4), plant=Subset.from_elements([0, 2, 4], 6))
transcript = oracles.QueryTranscript()
f, g = oracles.make_oracles(inst, transcript)
result = optimize.brute_force_min_ratio(f, g, 6)
assert result.argset == inst.plant and result.queries_used == 2 * 63, result
assert (f.count, g.count) == (63, 63) and transcript.entries == list(range(1, 64)), transcript.entries
summary = tracer.summary()
calls, by_parent = summary["calls"], summary["calls_by_parent"]
assert calls.get("oracles.ratio") == 1, calls
assert by_parent.get("oracles.ratio<optimize.brute_force_min_ratio") == 1, by_parent
assert "oracles.record" not in calls, calls
print("traced")
"""

# A local search evaluates its start in one traced ratio call and each
# neighbourhood in one more.  This trial's start has 24 neighbours and no
# strictly better one, so it stops after two calls and 25 evaluations, each
# on g's transcript; scoring the returned set records the 26th.
LOCAL_TRIAL = """
local = optimize.make_algorithm("local", 200)
handles = []

def algorithm(f, g, n, seed):
    handles.append(g)
    return local(f, g, n, seed)

[report] = game.run_game_increasing(algorithm, IncreasingInstance(8, 100, Fraction(1, 4)), 4, 1)
[g] = handles
assert report.queries == 2 * 25 and len(g.transcript) == g.count == 26, (report, g.transcript.entries)
summary = tracer.summary()
calls, by_parent = summary["calls"], summary["calls_by_parent"]
assert calls.get("oracles.ratio") == 2, calls
assert by_parent.get("oracles.ratio<optimize.local_search") == 2, by_parent
assert calls.get("oracles.record") == 1, calls
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


def test_tracer_sees_one_ratio_call_per_brute_batch():
    _run_traced(BRUTE_SOLVE)


def test_tracer_sees_one_ratio_call_per_local_neighbourhood():
    _run_traced(LOCAL_TRIAL)
