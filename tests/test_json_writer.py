"""``cli._dump`` writes exactly what ``json.dumps(value, indent=2)`` writes.

The writer accepts only the types a report holds (dict with str keys,
list, str, int, bool, None), so the property is checked over recursive
values built from those, with the strings, ints and empty containers on
which an encoder is most likely to slip.  The writer renders each
distinct int once per call, so values are also drawn from a small range
in which they repeat across the lists of one value.  A report is a dict
whose values ``cli._json_report`` also takes as iterators in place of
lists, yielding their items as pieces of their own; the edge cases hold
such values too.  No renderer writes to stdout: ``cli._write`` alone does.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from senvr.cli import _dump, _json_report, main

EXAMPLE2 = str(Path(__file__).resolve().parent.parent / "profiles" / "example2.profile")

# every code point, lone surrogates included, plus the characters JSON escapes
CHARACTERS = st.characters(blacklist_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\x08", "\n", "\x1f", "\x7f", " ", "\ud800", "\udfff", "é"]
)
TEXT = st.text(CHARACTERS, max_size=12)
INTS = (
    st.integers()
    | st.integers(max_value=-(2**64))
    | st.integers(min_value=2**64)
)
# few distinct values, so that one value holds the same ones many times,
# with 0 and 1 beside the bools they equal
SMALL_INTS = st.integers(min_value=-2, max_value=3)
SCALARS = st.none() | st.booleans() | INTS | SMALL_INTS | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(INTS, max_size=5)
        | st.lists(SMALL_INTS, max_size=8)
        | st.dictionaries(TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


class Iterated(list):
    """A list that is handed to ``_json_report`` as an iterator over its items."""


def _iterated(value) -> bool:
    return type(value) is dict and any(isinstance(item, Iterated) for item in value.values())


def _reported(report: dict) -> str:
    """The pieces of ``_json_report``, its ``Iterated`` values given as iterators."""
    given = {key: iter(item) if isinstance(item, Iterated) else item
             for key, item in report.items()}
    return "".join(_json_report(given))


@given(VALUES)
def test_dump_matches_json_dumps_indent_2(value):
    assert _dump(value) == json.dumps(value, indent=2)


@given(VALUES, VALUES)
def test_dump_keeps_no_state_between_calls(first, second):
    # the int-text table lives for one call: a second call, or a call on
    # another value in between, renders the same text
    text = _dump(first)
    _dump(second)
    assert _dump(first) == text


@pytest.mark.parametrize(
    "value",
    [
        # True is an int whose int.__repr__ is "1": a list holding a bool
        # must not take the plain-int path
        [1, True],
        [True],
        [0, False, None],
        {"a": [0, False]},
        # one report holding the same number as an int and as a bool in
        # different lists, in both orders
        {"a": [1, 1], "b": [True, 1], "c": [1, True]},
        {"a": [True, 1], "b": [1, 1], "c": [0, False], "d": [0]},
        [[1], [True], [2**64, 2**64]],
        [[True], [1], 1, True, [False, 0], 0],
        [],
        {},
        [[], {}, [[]]],
        {"": {"": []}},
        [2**64, -(2**64), -1, 0],
        ["\ud800", '"\\', "\x00\x1f\x7f", "é中\U0001f600"],
        # iterators: empty, one item, many items; json.dumps reads each as
        # the list it iterates over
        {"a": Iterated()},
        {"a": Iterated([1])},
        {"a": Iterated([[1, True], {"a": [0, False]}, "x", None, 2**64, [], {}])},
        {"a": Iterated(), "b": 1},
        {"a": Iterated([{"b": [1, 1]}]), "c": [1, True]},
        {"a": 1, "b": Iterated([[True], 1, {}, [1, 1]]), "c": Iterated(), "d": Iterated(["é"])},
        {"a": Iterated([[0, 0], [False, 0]]), "b": Iterated([0, False])},
    ],
)
def test_dump_matches_json_dumps_on_edge_cases(value):
    expected = json.dumps(value, indent=2)
    if not _iterated(value):
        assert _dump(value) == expected
    if type(value) is dict:
        text = _reported(value)
        assert text == expected + "\n"
        assert _reported(value) == text


@pytest.mark.parametrize(
    "value",
    [
        1.5, [1, 2.0], (1, 2), {"a": (1,)}, {1: "a"}, {None: 1}, b"x",
        # only _json_report takes iterators, as the values of a report
        iter([1]), [iter([1])], {"a": {"b": iter([])}}, {"a": iter([1])},
    ],
)
def test_dump_rejects_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _dump(value)


class _UnwritableStdout:
    def write(self, text: str) -> int:
        raise AssertionError("a report was written outside cli._write")

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["check", EXAMPLE2],
        ["check", EXAMPLE2, "--json"],
        ["pm", EXAMPLE2],
        ["pm", EXAMPLE2, "--json"],
        ["verify", "--m", "3", "--n", "3", "--exhaustive"],
        ["verify", "--m", "3", "--n", "3", "--exhaustive", "--json"],
    ],
    ids=["check", "check-json", "pm", "pm-json", "verify", "verify-json"],
)
def test_reports_are_pieces_that_only_the_write_loop_writes(capsys, monkeypatch, argv):
    # each renderer and _json_report is consumed with a stdout that fails
    # every write: the pieces must still be the report main writes
    assert main(argv) == 0
    written = capsys.readouterr().out
    pieces = []
    monkeypatch.setattr(sys, "stdout", _UnwritableStdout())
    monkeypatch.setattr("senvr.cli._write", pieces.extend)
    assert main(argv) == 0
    assert "".join(pieces) == written
