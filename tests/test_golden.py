"""Byte-for-byte goldens of whole CLI runs, pinned across versions.

The files under ``tests/golden/`` are the exact stdout of each command.
The ``check`` reports on the 10 x 301 profile are about 538 KB (JSON)
and 34 KB (text), and the ``pm`` reports 732 KB (JSON) and 147 KB
(text), so only their byte length and sha256 are committed.  The
profile itself was written by ``bench/generate.py`` with
``generate(10, 301, 11)``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from senvr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PROFILES = Path(__file__).resolve().parent.parent / "profiles"
EXAMPLE2 = str(PROFILES / "example2.profile")
LARGE = str(GOLDEN / "large_10x301.profile")


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(
            ["verify", "--json", "--m", "5", "--n", "7", "--random",
             "--trials", "1000", "--seed", "7"],
            "verify_random_m5_n7_t1000_s7.json",
            id="verify-random",
        ),
        pytest.param(
            ["verify", "--json", "--exhaustive", "--m", "3", "--n", "4"],
            "verify_exhaustive_m3_n4.json",
            id="verify-exhaustive",
        ),
        pytest.param(
            ["verify", "--random", "--m", "5", "--n", "7",
             "--trials", "1000", "--seed", "7"],
            "verify_random_m5_n7_t1000_s7.txt",
            id="verify-random-text",
        ),
        pytest.param(
            ["verify", "--exhaustive", "--m", "3", "--n", "4"],
            "verify_exhaustive_m3_n4.txt",
            id="verify-exhaustive-text",
        ),
        pytest.param(
            ["check", str(PROFILES / "example1.profile")],
            "check_example1.txt",
            id="check-example1",
        ),
        pytest.param(["check", EXAMPLE2], "check_example2.txt", id="check-example2"),
        pytest.param(
            ["check", str(PROFILES / "condorcet.profile")],
            "check_condorcet.txt",
            id="check-condorcet",
        ),
        pytest.param(["pm", EXAMPLE2], "pm_example2.txt", id="pm"),
        pytest.param(["pm", EXAMPLE2, "--json"], "pm_example2.json", id="pm-json"),
        pytest.param(
            ["pm", EXAMPLE2, "--triple", "w,x,y"],
            "pm_example2_triple_wxy.txt",
            id="pm-triple",
        ),
        pytest.param(
            ["pm", EXAMPLE2, "--triple", "w,x,y", "--json"],
            "pm_example2_triple_wxy.json",
            id="pm-triple-json",
        ),
    ],
)
def test_output_matches_golden(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")


def _assert_digest(out: str, digest_file: str) -> None:
    data = out.encode("utf-8")
    digest = json.loads((GOLDEN / digest_file).read_text())
    assert len(data) == digest["bytes"]
    assert hashlib.sha256(data).hexdigest() == digest["sha256"]


def test_check_large_output_matches_golden_digest(capsys):
    assert main(["check", "--json", LARGE]) == 0
    _assert_digest(capsys.readouterr().out, "check_large_10x301.digest.json")


def test_check_large_text_matches_golden_digest(capsys):
    assert main(["check", LARGE]) == 0
    _assert_digest(capsys.readouterr().out, "check_text_large_10x301.digest.json")


def test_pm_large_output_matches_golden_digest(capsys):
    assert main(["pm", "--json", LARGE]) == 0
    _assert_digest(capsys.readouterr().out, "pm_large_10x301.digest.json")


def test_pm_large_text_matches_golden_digest(capsys):
    assert main(["pm", LARGE]) == 0
    _assert_digest(capsys.readouterr().out, "pm_text_large_10x301.digest.json")


class _WriteRecorder:
    """A stdout that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv, digest_file",
    [
        (["check", "--json", LARGE], "check_large_10x301.digest.json"),
        (["check", LARGE], "check_text_large_10x301.digest.json"),
        (["pm", "--json", LARGE], "pm_large_10x301.digest.json"),
        (["pm", LARGE], "pm_text_large_10x301.digest.json"),
    ],
    ids=["check-json", "check-text", "pm-json", "pm-text"],
)
def test_large_reports_are_written_a_triple_or_voter_at_a_time(monkeypatch, argv, digest_file):
    # the largest triple of this profile takes about 4.6 KB of JSON, a voter
    # less; a report held whole would be written in one piece of 34-732 KB
    stdout = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    _assert_digest("".join(stdout.writes), digest_file)
    assert max(map(len, stdout.writes)) <= 8 * 1024
