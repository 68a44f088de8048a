"""``check --json`` agrees with the benchmark's independent reference.

``bench/generate.py`` writes seeded ballot files, ties included, and
``bench/reference.py`` recomputes the whole ``check`` report from rank
vectors with numpy; neither imports senvr.  Both are read from their
files, not imported as packages, and nothing under ``bench/`` is edited.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from senvr.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _load("generate")
reference = _load("reference")

# a few dozen seeded sizes: m from 3 to 6, n from 1 to 15
_rng = random.Random(20221)
CASES = [(3 + seed % 4, _rng.randint(1, 15), seed) for seed in range(36)]


def test_cases_cover_the_sizes_ties_and_verdicts():
    assert {m for m, _, _ in CASES} == {3, 4, 5, 6}
    assert {n for _, n, _ in CASES} >= {1, 15}
    tied = 0
    verdicts = set()
    for m, n, seed in CASES:
        names, ranks, _ = generate.generate(m, n, seed)
        tied += sum(len(set(ballot)) < m for ballot in ranks)
        payload = reference.check_payload(names, ranks)
        verdicts.add((payload["condition_holds"], payload["social"]["transitive"]))
    assert tied > len(CASES)
    # the condition holding (so transitive), failing on a transitive
    # majority, and failing on a cycle
    assert verdicts == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("m, n, seed", CASES, ids=[f"m{m}-n{n}-s{s}" for m, n, s in CASES])
def test_check_json_matches_the_reference(tmp_path, capsys, m, n, seed):
    names, ranks, text = generate.generate(m, n, seed)
    path = tmp_path / "profile.txt"
    path.write_text(text)
    assert main(["check", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == reference.check_payload(names, ranks)
