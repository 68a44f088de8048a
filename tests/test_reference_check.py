"""``check --json`` and ``verify --json`` agree with the benchmark's
independent reference.

``bench/generate.py`` writes seeded ballot files, ties included, and
``bench/reference.py`` recomputes the whole ``check`` report and the
``verify`` counters from rank vectors with numpy; neither imports senvr.
Both are read from their files, not imported as packages, and nothing
under ``bench/`` is edited.
"""

import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from senvr import random_profile
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


# random sweeps on both sides of the array pass's threshold, and every
# small exhaustive space the reference can hold in memory
_sweep_rng = random.Random(20222)
RANDOM_SWEEPS = [
    (3 + seed % 6, _sweep_rng.randint(1, 9), _sweep_rng.randint(1, 40), seed)
    for seed in range(30)
]
EXHAUSTIVE_SWEEPS = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]


def _verify_json(capsys, *argv):
    code = main(["verify", *argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


@pytest.mark.parametrize(
    "m, n, trials, seed",
    RANDOM_SWEEPS,
    ids=[f"m{m}-n{n}-t{t}-s{s}" for m, n, t, s in RANDOM_SWEEPS],
)
def test_random_verify_json_matches_the_reference(capsys, m, n, trials, seed):
    # the reference decides the profiles that senvr's sampler draws
    ranks = np.array([random_profile(m, n, seed, trial).ranks for trial in range(trials)])
    counts = reference.sweep_counts(ranks)
    assert counts[5] == 0
    args = ["--random", "--m", str(m), "--n", str(n), "--trials", str(trials)]
    code, payload = _verify_json(capsys, *args, "--seed", str(seed))
    assert code == 0
    assert payload.pop("violations") == []
    assert payload == reference.verify_payload("random", m, n, trials, seed, counts)


@pytest.mark.parametrize("m, n", EXHAUSTIVE_SWEEPS)
def test_exhaustive_verify_json_matches_the_reference(capsys, m, n):
    counts = reference.sweep_counts(reference.exhaustive_ranks(m, n))
    assert counts[5] == 0
    code, payload = _verify_json(capsys, "--exhaustive", "--m", str(m), "--n", str(n))
    assert code == 0
    assert payload.pop("violations") == []
    assert payload == reference.verify_payload("exhaustive", m, n, None, None, counts)


def test_sweeps_cover_both_passes_and_every_counter():
    # profiles on both sides of the array pass's threshold, 64
    # voter-triples, and every counter nonzero somewhere
    sizes = [math.comb(m, 3) * n for m, n, _, _ in RANDOM_SWEEPS]
    assert min(sizes) < 64 <= max(sizes)
    totals = [0] * 5
    for m, n, trials, seed in RANDOM_SWEEPS:
        ranks = np.array([random_profile(m, n, seed, t).ranks for t in range(trials)])
        totals = [a + b for a, b in zip(totals, reference.sweep_counts(ranks))]
    assert all(totals)
