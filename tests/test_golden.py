"""Byte-for-byte goldens of whole CLI runs, pinned across versions.

The files under ``tests/golden/`` are the exact stdout of each command.
The ``check`` report on the 10 x 301 profile is about 538 KB, so only
its byte length and sha256 are committed.  The profile itself was
written by ``bench/generate.py`` with ``generate(10, 301, 11)``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from senvr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", "--json", "--m", "5", "--n", "7", "--random",
             "--trials", "1000", "--seed", "7"],
            "verify_random_m5_n7_t1000_s7.json",
        ),
        (
            ["verify", "--json", "--exhaustive", "--m", "3", "--n", "4"],
            "verify_exhaustive_m3_n4.json",
        ),
    ],
    ids=["verify-random", "verify-exhaustive"],
)
def test_verify_output_matches_golden(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")


def test_check_large_output_matches_golden_digest(capsys):
    assert main(["check", "--json", str(GOLDEN / "large_10x301.profile")]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    digest = json.loads((GOLDEN / "check_large_10x301.digest.json").read_text())
    assert len(out) == digest["bytes"]
    assert hashlib.sha256(out).hexdigest() == digest["sha256"]
