"""Acceptance gate: nine criteria, each reporting one PASS/FAIL line.

Run ``python3 -m pytest -s -v tests/test_acceptance.py`` to see the
per-criterion lines alongside the pytest verdicts.
"""

import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from senvr import (
    ValueLabel,
    check_membership_equation,
    check_union_inequality,
    check_value_restriction_oracle,
    enumerate_profiles,
    enumerate_weak_orders,
    is_transitive,
    majority_relation,
    pairwise_tallies,
    preference_map,
    random_profile,
    sen_condition,
    value_set,
)
from senvr.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "profiles"
EXAMPLE1 = str(FIXTURES / "example1.profile")
EXAMPLE2 = str(FIXTURES / "example2.profile")
CONDORCET = str(FIXTURES / "condorcet.profile")


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL  {label}", file=sys.stderr)
        raise
    print(f"[criterion {n}] PASS  {label}", file=sys.stderr)


def _shape_set(profile, triple):
    """The concerned ballot shapes that occur on ``triple``, each as the
    signs of its voter's three rank differences."""
    x, y, z = triple.members
    shapes = {
        (
            (r[x] > r[y]) - (r[x] < r[y]),
            (r[y] > r[z]) - (r[y] < r[z]),
            (r[x] > r[z]) - (r[x] < r[z]),
        )
        for r in (voter.ranks for voter in profile.voters)
    }
    shapes.discard((0, 0, 0))
    return frozenset(shapes)


def _analyze(profile, representatives):
    verdict = sen_condition(profile)
    transitive, _ = is_transitive(majority_relation(pairwise_tallies(profile)))
    for report in verdict.per_triple:
        representatives.setdefault(_shape_set(profile, report.triple), (profile, report))
    return verdict.condition_holds, transitive


@pytest.fixture(scope="module")
def sweeps():
    # shared by criteria 3, 4, 5: the 2197-profile exhaustive sweep at
    # m=3, n=3 plus 10,000 seeded random profiles at m=5, n=7; every triple
    # is grouped by the set of concerned ballot shapes on it, keeping the
    # first (profile, report) of each set
    start = time.perf_counter()
    representatives = {}
    exhaustive = [_analyze(p, representatives) for p in enumerate_profiles(3, 3)]
    random = [
        _analyze(random_profile(5, 7, seed=42, trial=t), representatives)
        for t in range(10_000)
    ]
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        exhaustive=exhaustive, random=random, representatives=representatives, elapsed=elapsed
    )


def test_criterion_1_preference_map_goldens(capsys):
    with criterion(1, "three-voter preference maps and membership matrices"):
        start = time.perf_counter()
        code = main(["pm", EXAMPLE1, "--json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        expected = [
            (
                {"x": [1], "y": [2], "z": [3]},
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            ),
            (
                {"x": [1, 2], "y": [1, 2], "z": [3]},
                [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
            ),
            (
                {"x": [1, 2, 3], "y": [1, 2, 3], "z": [1, 2, 3]},
                [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            ),
        ]
        assert len(payload["voters"]) == 3
        for voter, (pm, mpm) in zip(payload["voters"], expected):
            assert voter["preference_map"] == pm
            assert voter["membership_matrix"] == mpm
        assert elapsed < 1.0


def test_criterion_2_condition_check_goldens(capsys):
    with criterion(2, "five-voter condition check, tallies, social ordering"):
        start = time.perf_counter()
        code = main(["check", EXAMPLE2, "--json"])
        json_out = capsys.readouterr().out
        code_text = main(["check", EXAMPLE2])
        text_out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert code == 0 and code_text == 0
        payload = json.loads(json_out)
        first = payload["triples"][0]
        assert first["members"] == ["w", "x", "y"]
        assert first["union_sets"]["x"] == [1, 2]
        assert first["sum_matrix"] == [[2, 2, 3], [4, 4, 0], [2, 2, 2]]
        assert first["eq_witness"] == [2, 3]
        assert len(payload["triples"]) == 4
        assert all(t["value_restricted"] for t in payload["triples"])
        assert payload["condition_holds"] is True
        assert payload["social"]["transitive"] is True
        assert payload["social"]["ordering"] == [["x", "z"], ["y"], ["w"]]
        assert "social ordering: x ~ z > y > w" in text_out
        assert elapsed < 1.0


def test_criterion_3_checker_equivalence(sweeps):
    with criterion(3, "three checkers agree on every triple of both sweeps"):
        assert len(sweeps.exhaustive) == 2197
        assert len(sweeps.random) == 10_000
        # a triple's verdict and witnesses depend only on which concerned
        # shapes occur on it, so the reference checkers run once per set
        assert 0 < len(sweeps.representatives) <= 4096
        for profile, report in sweeps.representatives.values():
            triple = report.triple
            assert check_union_inequality(profile, triple) == (
                report.value_restricted, report.ineq_witness
            )
            assert check_membership_equation(profile, triple)[:2] == (
                report.value_restricted, report.eq_witness
            )
            assert check_value_restriction_oracle(profile, triple) == (
                report.value_restricted, report.oracle_witness
            )
        assert sweeps.elapsed < 60.0


def test_criterion_4_sufficiency(sweeps):
    with criterion(4, "condition implies transitivity in both sweeps"):
        violations = [
            1
            for holds, transitive in sweeps.exhaustive + sweeps.random
            if holds and not transitive
        ]
        assert violations == []


def test_criterion_5_non_necessity(sweeps):
    with criterion(5, "exhaustive sweep finds failed-yet-transitive profiles"):
        assert any(
            transitive and not holds for holds, transitive in sweeps.exhaustive
        )


def test_criterion_6_value_position_correspondence():
    with criterion(6, "value sets match preference-map rows, 39 checks"):
        to_value = {1: ValueLabel.BEST, 2: ValueLabel.MEDIUM, 3: ValueLabel.WORST}
        checks = 0
        for order in enumerate_weak_orders(3):
            rows = preference_map(order).rows
            for alt in range(3):
                expected = frozenset(to_value[p] for p in rows[alt])
                assert value_set(order, alt) == expected
                checks += 1
        assert checks == 39


def test_criterion_7_negative_fixture(capsys):
    with criterion(7, "cycle fixture fails the condition with exit code 3"):
        code = main(["check", CONDORCET, "--json", "--assert-sen"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["condition_holds"] is False
        assert payload["social"]["transitive"] is False
        assert payload["social"]["cycle"] == ["x", "y", "z"]


def test_criterion_8_enumeration_oracle():
    with criterion(8, "weak-order enumeration matches the labeling oracle"):

        def surjective_labelings(m):
            count = 0
            for labels in itertools.product(range(m), repeat=m):
                if set(labels) == set(range(max(labels) + 1)):
                    count += 1
            return count

        assert len(enumerate_weak_orders(3)) == surjective_labelings(3) == 13
        assert len(enumerate_weak_orders(4)) == surjective_labelings(4) == 75


def test_criterion_9_deterministic_reports(capsys):
    with criterion(9, "repeated seeded sweeps emit byte-identical JSON"):
        argv = [
            "verify", "--m", "5", "--n", "7",
            "--random", "--trials", "1000", "--seed", "7", "--json",
        ]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["profiles_tested"] == 1000
