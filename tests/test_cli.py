import contextlib
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from senvr import HarnessReport, membership_map, parse_profile, preference_map, restrict
from senvr.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "profiles"
EXAMPLE1 = str(FIXTURES / "example1.profile")
EXAMPLE2 = str(FIXTURES / "example2.profile")
CONDORCET = str(FIXTURES / "condorcet.profile")
LARGE = str(Path(__file__).resolve().parent / "golden" / "large_10x301.profile")

NAME = {"type": "string"}
POSITIONS = {"type": "array", "items": {"type": "integer", "minimum": 1}}

CHECK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["alternatives", "triples", "condition_holds", "tallies", "social"],
    "properties": {
        "alternatives": {"type": "array", "items": NAME, "minItems": 2},
        "triples": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": [
                    "members",
                    "concerned",
                    "parity_ok",
                    "value_restricted",
                    "ineq_witness",
                    "union_sets",
                    "sum_matrix",
                    "eq_witness",
                    "oracle_witness",
                ],
                "properties": {
                    "members": {
                        "type": "array", "items": NAME, "minItems": 3, "maxItems": 3,
                    },
                    "concerned": {
                        "type": "array", "items": {"type": "integer", "minimum": 1},
                    },
                    "parity_ok": {"type": "boolean"},
                    "value_restricted": {"type": "boolean"},
                    "ineq_witness": {"type": ["string", "null"]},
                    "union_sets": {
                        "type": "object", "additionalProperties": POSITIONS,
                    },
                    "sum_matrix": {
                        "type": "array",
                        "minItems": 3,
                        "maxItems": 3,
                        "items": {
                            "type": "array",
                            "minItems": 3,
                            "maxItems": 3,
                            "items": {"type": "integer", "minimum": 0},
                        },
                    },
                    "eq_witness": {
                        "oneOf": [
                            {"type": "null"},
                            {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {
                                    "type": "integer", "minimum": 1, "maximum": 3,
                                },
                            },
                        ]
                    },
                    "oracle_witness": {
                        "oneOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["alternative", "value"],
                                "properties": {
                                    "alternative": NAME,
                                    "value": {"enum": ["best", "medium", "worst"]},
                                },
                            },
                        ]
                    },
                },
            },
        },
        "condition_holds": {"type": "boolean"},
        "tallies": {
            "type": "array",
            "items": {
                "type": "array", "items": {"type": "integer", "minimum": 0},
            },
        },
        "social": {
            "type": "object",
            "additionalProperties": False,
            "required": ["transitive", "ordering", "cycle"],
            "properties": {
                "transitive": {"type": "boolean"},
                "ordering": {
                    "oneOf": [
                        {"type": "null"},
                        {"type": "array", "items": {"type": "array", "items": NAME}},
                    ]
                },
                "cycle": {
                    "oneOf": [
                        {"type": "null"},
                        {
                            "type": "array",
                            "minItems": 3,
                            "maxItems": 3,
                            "items": NAME,
                        },
                    ]
                },
            },
        },
    },
}

PM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["alternatives", "triple", "voters"],
    "properties": {
        "alternatives": {"type": "array", "items": NAME, "minItems": 2},
        "triple": {
            "oneOf": [
                {"type": "null"},
                {"type": "array", "items": NAME, "minItems": 3, "maxItems": 3},
            ]
        },
        "voters": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["voter", "ordering", "preference_map", "membership_matrix"],
                "properties": {
                    "voter": {"type": "integer", "minimum": 1},
                    "ordering": {
                        "type": "array", "items": {"type": "array", "items": NAME},
                    },
                    "preference_map": {
                        "type": "object", "additionalProperties": POSITIONS,
                    },
                    "membership_matrix": {
                        "type": "array",
                        "items": {"type": "array", "items": {"enum": [0, 1]}},
                    },
                },
            },
        },
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "mode",
        "m",
        "n",
        "trials",
        "seed",
        "profiles_tested",
        "condition_held_count",
        "condition_held_and_transitive_count",
        "condition_failed_count",
        "condition_failed_but_transitive_count",
        "violations",
    ],
    "properties": {
        "mode": {"enum": ["exhaustive", "random"]},
        "m": {"type": "integer", "minimum": 3},
        "n": {"type": "integer", "minimum": 1},
        "trials": {"type": ["integer", "null"]},
        "seed": {"type": ["integer", "null"]},
        "profiles_tested": {"type": "integer", "minimum": 0},
        "condition_held_count": {"type": "integer", "minimum": 0},
        "condition_held_and_transitive_count": {"type": "integer", "minimum": 0},
        "condition_failed_count": {"type": "integer", "minimum": 0},
        "condition_failed_but_transitive_count": {"type": "integer", "minimum": 0},
        "violations": {"type": "array", "items": {"type": "string"}},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_example2_human(capsys):
    code, out, err = run_cli(capsys, "check", EXAMPLE2)
    assert code == 0 and not err
    assert "[[2, 2, 3], [4, 4, 0], [2, 2, 2]]" in out
    assert "condition holds" in out
    assert "social ordering: x ~ z > y > w" in out


def test_check_example2_json(capsys):
    code, out, _ = run_cli(capsys, "check", EXAMPLE2, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CHECK_SCHEMA)
    assert payload["alternatives"] == ["w", "x", "y", "z"]
    assert payload["condition_holds"] is True
    assert payload["triples"][0] == {
        "members": ["w", "x", "y"],
        "concerned": [1, 2, 3, 4, 5],
        "parity_ok": True,
        "value_restricted": True,
        "ineq_witness": "x",
        "union_sets": {"w": [1, 2, 3], "x": [1, 2], "y": [1, 2, 3]},
        "sum_matrix": [[2, 2, 3], [4, 4, 0], [2, 2, 2]],
        "eq_witness": [2, 3],
        "oracle_witness": {"alternative": "x", "value": "worst"},
    }
    assert len(payload["triples"]) == 4
    assert payload["tallies"] == [
        [0, 0, 2, 2],
        [3, 0, 3, 2],
        [3, 1, 0, 1],
        [3, 2, 4, 0],
    ]
    assert payload["social"] == {
        "transitive": True,
        "ordering": [["x", "z"], ["y"], ["w"]],
        "cycle": None,
    }


def test_check_example1_json(capsys):
    code, out, _ = run_cli(capsys, "check", EXAMPLE1, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CHECK_SCHEMA)
    assert payload["condition_holds"] is False
    (report,) = payload["triples"]
    assert report == {
        "members": ["x", "y", "z"],
        "concerned": [1, 2],
        "parity_ok": False,
        "value_restricted": True,
        "ineq_witness": "x",
        "union_sets": {"x": [1, 2], "y": [1, 2], "z": [3]},
        "sum_matrix": [[2, 1, 0], [1, 2, 0], [0, 0, 2]],
        "eq_witness": [1, 3],
        "oracle_witness": {"alternative": "x", "value": "worst"},
    }
    assert payload["tallies"] == [[0, 1, 2], [0, 0, 2], [0, 0, 0]]
    assert payload["social"]["transitive"] is True
    assert payload["social"]["ordering"] == [["x"], ["y"], ["z"]]


def test_check_assert_sen_passes(capsys):
    code, out, _ = run_cli(capsys, "check", EXAMPLE2, "--assert-sen")
    assert code == 0


def test_check_assert_sen_fails_on_cycle(capsys):
    code, out, _ = run_cli(capsys, "check", CONDORCET, "--assert-sen")
    assert code == 3
    assert "cycle" in out


def test_check_condorcet_json(capsys):
    code, out, _ = run_cli(capsys, "check", CONDORCET, "--json", "--assert-sen")
    assert code == 3
    payload = json.loads(out)
    jsonschema.validate(payload, CHECK_SCHEMA)
    assert payload["condition_holds"] is False
    assert payload["social"] == {
        "transitive": False,
        "ordering": None,
        "cycle": ["x", "y", "z"],
    }
    (report,) = payload["triples"]
    assert report["value_restricted"] is False
    assert report["parity_ok"] is True
    assert report["ineq_witness"] is None
    assert report["eq_witness"] is None
    assert report["oracle_witness"] is None
    assert report["sum_matrix"] == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


def test_check_missing_file(capsys):
    code, out, err = run_cli(capsys, "check", "/no/such/file.profile")
    assert code == 2
    assert err


def test_check_reports_parse_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.profile"
    bad.write_text("alternatives: x y\nvoter: x > q\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_check_counts_lines_at_line_ends_only(capsys, tmp_path):
    # a form feed or U+2028 neither starts a line nor ends a comment
    bad = tmp_path / "bad.profile"
    bad.write_text("# header\f\nalternatives: x y  # a\u2028b\nvoter: x > y!\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: 'y!' is not a valid name")


@pytest.mark.parametrize("command", ["check", "pm"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_non_utf8_input_names_the_line_and_the_byte(capsys, tmp_path, command, newline):
    bad = tmp_path / "bad.profile"
    lines = [b"# caf\xc3\xa9", b"alternatives: x y z", b"voter: x > y > z", b"voter: x > \xff z"]
    bad.write_bytes(newline.join(lines) + newline)
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 4: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_check_rejects_two_alternatives(capsys, tmp_path):
    # the condition is about triples, so a two-alternative profile is an
    # out-of-range request rather than a vacuously satisfied condition
    two = tmp_path / "two.profile"
    two.write_text("alternatives: x y\nvoter: x > y\n")
    code, out, err = run_cli(capsys, "check", str(two))
    assert code == 2
    assert out == ""
    assert err == "error: the condition is defined for at least 3 alternatives\n"


def test_check_refuses_too_many_voter_triples_before_deciding_any(
    capsys, tmp_path, monkeypatch
):
    # C(400, 3) = 10,586,800 voter-triples from a single voter
    names = [f"a{i}" for i in range(400)]
    wide = tmp_path / "wide.profile"
    wide.write_text(f"alternatives: {' '.join(names)}\nvoter: {' > '.join(names)}\n")

    def decided(profile):
        raise AssertionError("a triple was decided")

    monkeypatch.setattr("senvr.cli.sen_condition", decided)
    code, out, err = run_cli(capsys, "check", str(wide), "--json")
    assert code == 2
    assert out == ""
    assert err == (
        "error: C(400,3)*1 = 10586800 voter-triples exceed the limit of 10000000\n"
    )


@pytest.mark.parametrize("limit, status", [(20, 0), (19, 2)])
def test_check_voter_triple_limit_is_inclusive(capsys, monkeypatch, limit, status):
    # example2 has C(4, 3) * 5 = 20 voter-triples
    monkeypatch.setattr("senvr.cli.MAX_VOTER_TRIPLES", limit)
    code, out, err = run_cli(capsys, "check", EXAMPLE2)
    assert code == status
    if status:
        assert out == ""
        assert err == f"error: C(4,3)*5 = 20 voter-triples exceed the limit of {limit}\n"


def test_check_refuses_too_many_triples_before_deciding_any(capsys, tmp_path, monkeypatch):
    # C(86, 3) = 102,340 triples from a single voter: under the voter-triple
    # limit, over the triple limit
    names = [f"a{i}" for i in range(86)]
    wide = tmp_path / "wide.profile"
    wide.write_text(f"alternatives: {' '.join(names)}\nvoter: {' > '.join(names)}\n")

    def decided(profile):
        raise AssertionError("a triple was decided")

    monkeypatch.setattr("senvr.cli.sen_condition", decided)
    code, out, err = run_cli(capsys, "check", str(wide), "--json")
    assert code == 2
    assert out == ""
    assert err == "error: C(86,3) = 102340 triples exceed the limit of 100000\n"


@pytest.mark.parametrize("limit, status", [(4, 0), (3, 2)])
def test_check_triple_limit_is_inclusive(capsys, monkeypatch, limit, status):
    # example2 has C(4, 3) = 4 triples
    monkeypatch.setattr("senvr.cli.MAX_TRIPLES", limit)
    code, out, err = run_cli(capsys, "check", EXAMPLE2)
    assert code == status
    if status:
        assert out == ""
        assert err == f"error: C(4,3) = 4 triples exceed the limit of {limit}\n"


def test_pm_example1_json(capsys):
    code, out, _ = run_cli(capsys, "pm", EXAMPLE1, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, PM_SCHEMA)
    assert payload["triple"] is None
    assert payload["voters"][0]["preference_map"] == {"x": [1], "y": [2], "z": [3]}
    assert payload["voters"][0]["membership_matrix"] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert payload["voters"][1]["membership_matrix"] == [
        [1, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
    ]
    assert payload["voters"][2]["membership_matrix"] == [
        [1, 1, 1],
        [1, 1, 1],
        [1, 1, 1],
    ]


def test_pm_example1_human(capsys):
    code, out, _ = run_cli(capsys, "pm", EXAMPLE1)
    assert code == 0
    assert "voter 2: x ~ y > z" in out
    assert "x: {1, 2}" in out
    assert "1 1 0" in out


def test_pm_restricted_to_triple(capsys):
    code, out, _ = run_cli(capsys, "pm", EXAMPLE2, "--triple", "w,x,y", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, PM_SCHEMA)
    assert payload["triple"] == ["w", "x", "y"]
    maps = [v["preference_map"] for v in payload["voters"]]
    assert maps[0] == {"w": [1, 2], "x": [1, 2], "y": [3]}
    assert maps[4] == {"w": [3], "x": [2], "y": [1]}
    assert payload["voters"][3]["ordering"] == [["x", "y"], ["w"]]


@pytest.mark.parametrize("spec", ["w,x,q", "w,x", "w,w,x"])
def test_pm_rejects_bad_triples(capsys, spec):
    code, out, err = run_cli(capsys, "pm", EXAMPLE2, "--triple", spec)
    assert code == 2
    assert err


@pytest.mark.parametrize("spec", ["w,x,w", "x,x,x"])
def test_pm_names_the_repeated_alternative(capsys, spec):
    code, out, err = run_cli(capsys, "pm", EXAMPLE2, "--triple", spec)
    assert code == 2 and not out
    repeated = spec.split(",")[-1]
    assert err == f"error: alternative {repeated!r} appears more than once in the triple\n"


def test_pm_refuses_too_many_membership_cells_before_building_a_map(
    capsys, tmp_path, monkeypatch
):
    # one voter over 3163 alternatives: 3163**2 = 10,004,569 cells
    names = [f"a{i}" for i in range(3163)]
    wide = tmp_path / "wide.profile"
    wide.write_text(f"alternatives: {' '.join(names)}\nvoter: {' > '.join(names)}\n")

    def built(order):
        raise AssertionError("a map was built")

    monkeypatch.setattr("senvr.cli.preference_map", built)
    code, out, err = run_cli(capsys, "pm", str(wide), "--json")
    assert code == 2
    assert out == ""
    assert err == "error: 1*3163^2 = 10004569 membership cells exceed the limit of 10000000\n"


# example2 has 5 voters over 4 alternatives: 5 * 4**2 = 80 cells, and
# 5 * 3**2 = 45 under --triple
@pytest.mark.parametrize(
    "triple, cells, limit, status",
    [(None, 80, 80, 0), (None, 80, 79, 2), ("w,x,y", 45, 45, 0), ("w,x,y", 45, 44, 2)],
)
def test_pm_membership_cell_limit_is_inclusive(capsys, monkeypatch, triple, cells, limit, status):
    monkeypatch.setattr("senvr.cli.MAX_MEMBERSHIP_CELLS", limit)
    argv = ["pm", EXAMPLE2] + ([] if triple is None else ["--triple", triple])
    code, out, err = run_cli(capsys, *argv)
    assert code == status
    if status:
        k = 4 if triple is None else 3
        assert out == ""
        assert err == (
            f"error: 5*{k}^2 = {cells} membership cells exceed the limit of {limit}\n"
        )


def _held_after_pm(tmp_path, *flags):
    """Bytes still allocated after ``pm --json`` on 2,000 shuffled ballots
    over 10 alternatives, all but a few of them distinct."""
    rng = random.Random(32)
    names = [f"a{i}" for i in range(10)]
    lines = ["alternatives: " + " ".join(names)]
    for _ in range(2000):
        rng.shuffle(names)
        lines.append("voter: " + " > ".join(names))
    path = tmp_path / "distinct.profile"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for cache in (restrict, preference_map, membership_map):
        cache.cache_clear()
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["pm", "--json", *flags, str(path)]) == 0
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_pm_keeps_no_map_per_ballot_after_it_returns(tmp_path):
    # 64 maps of each kind hold some 0.26 MB; a map of each per ballot, 7.7 MB
    assert _held_after_pm(tmp_path) < 400_000


def test_pm_on_a_triple_keeps_no_restriction_per_ballot_after_it_returns(tmp_path):
    # a restriction kept per ballot holds some 0.6 MB
    assert _held_after_pm(tmp_path, "--triple", "a0,a1,a2") < 400_000


def test_verify_exhaustive_human(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "3", "--n", "3", "--exhaustive")
    assert code == 0 and not err
    assert "2197" in out
    assert "violations" in out


def test_verify_exhaustive_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "3", "--n", "3", "--exhaustive", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert payload["mode"] == "exhaustive"
    assert payload["trials"] is None and payload["seed"] is None
    assert payload["profiles_tested"] == 2197
    assert (
        payload["condition_held_count"]
        == payload["condition_held_and_transitive_count"]
    )
    assert payload["condition_failed_but_transitive_count"] > 0
    assert payload["violations"] == []


def test_verify_random_json_is_deterministic(capsys):
    argv = [
        "verify", "--m", "4", "--n", "3",
        "--random", "--trials", "40", "--seed", "9", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    jsonschema.validate(json.loads(out1), VERIFY_SCHEMA)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "9", "--n", "2", "--exhaustive"],
        ["verify", "--m", "2", "--n", "1", "--exhaustive"],
        ["verify", "--m", "3", "--n", "8", "--exhaustive"],
        ["verify", "--m", "3", "--n", "1", "--random", "--trials", "0"],
    ],
)
def test_verify_rejects_out_of_range_requests(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err


def test_verify_exhaustive_out_of_range_m_exits_2_with_the_range_message(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "1200", "--n", "1", "--exhaustive")
    assert code == 2
    assert out == ""
    assert err == "error: can enumerate weak orders for 1 <= m <= 5, got m=1200\n"


@pytest.mark.parametrize(
    "n, message",
    [
        ("7", "13^7 = 62748517 profiles exceed the budget of 10000000"),
        ("4000", "13^4000 profiles exceed the budget of 10000000"),
        ("1000000", "13^1000000 profiles exceed the budget of 10000000"),
    ],
)
def test_verify_exhaustive_past_the_budget_exits_2_with_the_budget_message(
    capsys, n, message
):
    code, out, err = run_cli(capsys, "verify", "--m", "3", "--n", n, "--exhaustive")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_random_refuses_too_many_voter_triples_before_sweeping(capsys, monkeypatch):
    def swept(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("senvr.cli.run_harness", swept)
    code, out, err = run_cli(
        capsys, "verify", "--m", "8", "--n", "178572", "--random", "--trials", "1"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: C(8,3)*178572 = 10000032 voter-triples exceed the limit of 10000000\n"
    )


@pytest.mark.parametrize("limit, status", [(20, 0), (19, 2)])
def test_verify_voter_triple_limit_is_inclusive(capsys, monkeypatch, limit, status):
    # each profile of m = 4, n = 5 has C(4, 3) * 5 = 20 voter-triples
    monkeypatch.setattr("senvr.cli.MAX_VOTER_TRIPLES", limit)
    code, out, err = run_cli(
        capsys, "verify", "--m", "4", "--n", "5", "--random", "--trials", "1"
    )
    assert code == status
    if status:
        assert out == ""
        assert err == f"error: C(4,3)*5 = 20 voter-triples exceed the limit of {limit}\n"


def test_verify_reports_violations_with_exit_4(capsys, monkeypatch):
    profile = parse_profile(Path(EXAMPLE2).read_text())
    fake = HarnessReport(
        profiles_tested=5,
        condition_held_count=3,
        condition_held_and_transitive_count=2,
        condition_failed_count=2,
        condition_failed_but_transitive_count=1,
        violations=(profile,),
    )
    monkeypatch.setattr("senvr.cli.run_harness", lambda config: fake)
    code, out, err = run_cli(
        capsys, "verify", "--m", "4", "--n", "5", "--random", "--trials", "5"
    )
    assert code == 4
    assert out == (
        "mode: random (m=4, n=5, trials=5, seed=0)\n"
        "profiles tested: 5\n"
        "condition held: 3 (transitive: 2)\n"
        "condition failed: 2 (transitive anyway: 1)\n"
        "violations: 1\n"
        "violation 1 (condition holds, majority relation intransitive):\n"
        "    alternatives: w x y z\n"
        "    voter: w ~ x > y > z\n"
        "    voter: w ~ x > z > y\n"
        "    voter: x ~ z > y > w\n"
        "    voter: z > x ~ y > w\n"
        "    voter: z > y > x > w\n"
    )


def test_no_arguments_shows_usage(capsys):
    assert main([]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "senvr" in out


def test_one_process_parses_every_call_afresh(capsys):
    # main parses with one parser built at import: an error or an exit
    # on one call must leave nothing behind for the next
    assert main(["check", "--json", EXAMPLE2]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--m", "3", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("usage: senvr verify")
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("senvr ")
    assert main(["check", "--json", EXAMPLE2]) == 0
    assert capsys.readouterr().out == first


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "senvr", "check", EXAMPLE2, "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["condition_holds"] is True


@pytest.mark.parametrize(
    "argv, read, unbuffered",
    [
        (["check", "--json", LARGE], 10, "1"),
        (["check", "--json", LARGE], 10, ""),
        (["verify", "--m", "3", "--n", "3", "--exhaustive"], 0, ""),
    ],
    ids=["large-unbuffered", "large-buffered", "small-buffered"],
)
def test_closed_stdout_exits_141_silently(argv, read, unbuffered):
    # The 538 KB report overfills the pipe, so its write fails once the
    # reader has gone.  The small report is still buffered when the command
    # returns, so its write fails at the flush.
    proc = subprocess.Popen(
        [sys.executable, "-m", "senvr", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
