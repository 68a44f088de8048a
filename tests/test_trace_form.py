"""The traced benchmark run must end in one strict JSON result line.

``bench/run.py --trace 1`` prints per-layer metrics.  A metric that reads
``null`` (a traced function or cache that is gone or never consulted) or
a non-finite number (``json.dumps`` writes ``NaN``/``Infinity``) makes the
result line unusable, as does any line printed after it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_traced_run_ends_in_a_finite_result_line():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = result.stdout.splitlines()[-1]
    report = json.loads(last, parse_constant=_reject_constant)
    assert report["correct"] is True
    assert report["metrics"]
    for name, metric in report["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
