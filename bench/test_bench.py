"""Tests for the benchmark's own code: generator, reference, tracing, runner.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import senvr.cli  # noqa: E402
from senvr import (  # noqa: E402
    is_transitive,
    majority_relation,
    pairwise_tallies,
    parse_profile,
    random_profile,
    sen_condition,
)

import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

FIXTURES = sorted((ROOT / "profiles").glob("*.profile"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ranks_of(profile) -> list[list[int]]:
    return [list(voter.ranks) for voter in profile.voters]


def generated_profiles():
    for seed in range(150):
        yield parse_profile(generate.generate(3 + seed % 4, 1 + seed % 9, seed)[2])
    for trial in range(150):
        yield random_profile(3 + trial % 4, 1 + trial % 8, 7, trial)


def test_generator_is_deterministic_and_parses_back():
    first = generate.generate(10, 301, 42)
    assert generate.generate(10, 301, 42) == first
    assert generate.generate(10, 301, 43)[2] != first[2]
    names, ranks, text = first
    profile = parse_profile(text)
    assert list(profile.alternative_names) == names
    assert ranks_of(profile) == ranks


def test_generator_makes_ties_and_distinct_ballots():
    ranks = generate.generate(10, 301, 5)[1]
    assert any(max(ballot) < 9 for ballot in ranks)
    assert len({tuple(b) for b in ranks}) > 290


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_reference_matches_cli_on_fixtures(path, capsys):
    profile = parse_profile(path.read_text())
    assert senvr.cli.main(["check", str(path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == reference.check_payload(list(profile.alternative_names), ranks_of(profile))


def test_reference_matches_library_on_fixtures_and_generated_profiles():
    profiles = [parse_profile(p.read_text()) for p in FIXTURES]
    profiles += list(generated_profiles())
    for profile in profiles:
        result = reference.analyze(np.array([ranks_of(profile)]))
        verdict = sen_condition(profile)
        relation = majority_relation(pairwise_tallies(profile))
        assert result["tallies"][0].tolist() == pairwise_tallies(profile).prefer.tolist()
        assert bool(result["transitive"][0]) == is_transitive(relation)[0]
        assert bool(result["condition"][0]) == verdict.condition_holds
        for t, report in enumerate(verdict.per_triple):
            assert list(report.triple.members) == result["triples"][t].tolist()
            concerned = np.flatnonzero(result["concerned"][0, :, t]).tolist()
            assert concerned == list(report.concerned)
            assert result["sums"][0, t].tolist() == report.sum_matrix.tolist()
            assert bool(result["restricted"][0, t]) == report.value_restricted
            assert bool(result["parity"][0, t]) == report.parity_ok


@pytest.mark.parametrize("size", sorted(reference.KNOWN_SWEEPS))
def test_reference_reproduces_known_exhaustive_counts(size):
    counts = reference.sweep_counts(reference.exhaustive_ranks(*size))
    assert counts == (*reference.KNOWN_SWEEPS[size], 0)


def test_wrong_output_counts_as_failed_call():
    check = run._check_verify((3, 1, 1, 2, 2, 0), reference.verify_payload(
        "random", 3, 3, 3, 0, (3, 1, 1, 2, 2)))
    good = {"mode": "random", "m": 3, "n": 3, "trials": 3, "seed": 0,
            "profiles_tested": 3, "condition_held_count": 1,
            "condition_held_and_transitive_count": 1, "condition_failed_count": 2,
            "condition_failed_but_transitive_count": 2, "violations": []}
    assert check(0, json.dumps(good)) is None
    assert check(4, json.dumps(good)) is not None
    assert check(0, json.dumps({**good, "condition_held_count": 2})) is not None


def test_tracer_restores_functions_and_counts_calls():
    original = senvr.condition.sen_condition
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert senvr.condition.sen_condition is not original
        assert senvr.cli.sen_condition is senvr.condition.sen_condition
        profile = parse_profile(FIXTURES[0].read_text())
        senvr.condition.sen_condition(profile)
    finally:
        tracer.uninstall()
    assert senvr.condition.sen_condition is original
    assert senvr.cli.sen_condition is original
    assert tracer.spans["condition.sen_condition"] == 1
    assert tracer.counts["orders.restrict.calls"] > 0


def test_deleted_cache_reports_null_hit_ratio(monkeypatch):
    cached = senvr.orders.restrict
    plain = cached.__wrapped__
    for module in (senvr, senvr.orders, senvr.condition, senvr.cli):
        if getattr(module, "restrict", None) is cached:
            monkeypatch.setattr(module, "restrict", plain)
    path = FIXTURES[0]
    profile = parse_profile(path.read_text())
    call = run.Call(["check", str(path), "--json"], 1,
                    run._check_report(list(profile.alternative_names), ranks_of(profile)))
    runner = run.Runner(senvr.cli, tracing.Tracer())
    runner.run([], iter([call]), seconds=60)
    metrics = runner.per_layer()
    assert runner.failed == 0
    assert metrics["orders.restrict.hit_ratio"] is None
    assert metrics["orders.restrict.calls_per_voter_triple"] == 4.0
    assert metrics["orders.preference_map.hit_ratio"] is not None


def test_missing_function_is_listed_and_reported_as_null(monkeypatch):
    monkeypatch.delattr(senvr.majority, "social_ordering")
    path = FIXTURES[0]
    profile = parse_profile(path.read_text())
    call = run.Call(["check", str(path), "--json"], 1,
                    run._check_report(list(profile.alternative_names), ranks_of(profile)))
    runner = run.Runner(senvr.cli, tracing.Tracer())
    runner.run([], iter([call]), seconds=60)
    metrics = runner.per_layer()
    assert runner.failed == 0
    assert runner.tracer.missing == ["majority.social_ordering"]
    assert metrics["majority.social_ordering.time_s"] is None
    assert 0 < metrics["trace.span_coverage"] < 1


def test_fresh_process_output_is_checked_and_its_memory_kept():
    path = FIXTURES[0]
    profile = parse_profile(path.read_text())
    call = run.Call(["check", str(path), "--json"], 1,
                    run._check_report(list(profile.alternative_names), ranks_of(profile)))
    runner = run.Runner(senvr.cli, None)
    held = bytearray(200 * 2**20)  # the benchmark's own memory must not show
    held[::4096] = b"\1" * len(range(0, len(held), 4096))
    runner.measure_memory(call)
    del held
    assert (runner.attempted, runner.failed) == (1, 0)
    assert 1 < runner.peak_rss_mb < 150


def test_spec_names_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(trace):
    done = bench("--workload", "all", "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = SPEC["per_layer" if trace == "1" else "end_to_end"]
    expected = {f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in names}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "check-large", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
