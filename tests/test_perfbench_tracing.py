"""The benchmark's tracer still installs over the package's entry points.

perfbench/tracing.py rebinds named module attributes and requires every
listed owner to hold the same object; it runs in a subprocess so that the
rebinding never reaches this test process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from fractions import Fraction
import tracing
import ratiolab.cli  # install() needs every traced owner imported, as perfbench's worker does
from ratiolab import oracles
from ratiolab.instances import DecreasingInstance
from ratiolab.sets import Subset
tracer = tracing.Tracer()
tracing.install(tracer)
inst = DecreasingInstance(8, 3, 1, Fraction(1, 2), plant=Subset.from_elements([0, 1, 2], 8))
f, g = oracles.make_oracles(inst)
assert oracles.ratio(inst.plant, f, g) == Fraction(1, 5)
calls = tracer.summary()["calls"]
assert calls.get("oracles.make_oracles") == 1, calls
assert calls.get("oracles.instance_evaluator") == 2, calls
assert calls.get("oracles.eval") == 2, calls
print("traced")
"""


def test_tracer_installs_and_records_evaluations():
    code = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "traced"
