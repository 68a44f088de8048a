import random
import tracemalloc

import pytest
from hypothesis import given

from helpers import profiles, wo
from senvr import (
    ParseError,
    default_alternative_names,
    enumerate_weak_orders,
    parse_profile,
    serialize_profile,
)
from senvr.profile_io import ballot_groups, decode_profile


EXAMPLE1_TEXT = """\
alternatives: x y z
voter: x > y > z
voter: x ~ y > z
voter: x ~ y ~ z
"""

EXAMPLE2_TEXT = """\
alternatives: w x y z
voter: w = x > y > z
voter: x ~ w > z > y
voter: z ~ x > y > w
voter: z > y ~ x > w
voter: z > y > x > w
"""


def test_parse_three_voters(example1):
    assert parse_profile(EXAMPLE1_TEXT) == example1


def test_parse_five_voters_mixed_tie_separators(example2):
    assert parse_profile(EXAMPLE2_TEXT) == example2


def test_parse_is_whitespace_tolerant(example1):
    text = (
        "\n  # a preference profile\n"
        "alternatives:   x  y\tz   # three options\n"
        "\n"
        "voter: x>y>z\n"
        "voter:x ~y > z\n"
        "voter: x~y~z  # everyone tied\n"
    )
    assert parse_profile(text) == example1


def test_parse_accepts_crlf(example1):
    assert parse_profile(EXAMPLE1_TEXT.replace("\n", "\r\n")) == example1


def test_parse_accepts_cr_only(example1):
    assert parse_profile(EXAMPLE1_TEXT.replace("\n", "\r")) == example1


# characters at which str.splitlines breaks a line, besides \n and \r
@pytest.mark.parametrize(
    "mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_lf_cr_and_crlf_break_lines(example1, mark):
    commented = EXAMPLE1_TEXT.replace("x y z\n", f"x y z  # one{mark}comment\n", 1)
    assert parse_profile(commented) == example1
    # a mark ending line 1 starts no line of its own
    bad = f"# header{mark}\nalternatives: x y\nvoter: x > y!\n"
    with pytest.raises(ParseError, match="not a valid name") as excinfo:
        parse_profile(bad)
    assert excinfo.value.line == 3


def test_parse_accepts_utf8_bom(example1):
    # editors on some platforms start UTF-8 files with a byte-order mark
    text = EXAMPLE1_TEXT.encode("utf-8-sig").decode("utf-8")
    assert text.startswith("\ufeff")
    assert parse_profile(text) == example1
    assert parse_profile(text.replace("\n", "\r\n")) == example1
    with pytest.raises(ParseError, match="unrecognized") as excinfo:
        parse_profile(EXAMPLE1_TEXT + "\ufeffvoter: x > y > z\n")
    assert excinfo.value.line == 5


def test_decode_returns_the_text_of_utf8_bytes(example1):
    data = EXAMPLE1_TEXT.replace("x y z\n", "x y z  # caf\u00e9\n", 1).encode("utf-8-sig")
    assert decode_profile(data) == data.decode("utf-8")
    assert parse_profile(decode_profile(data)) == example1


@pytest.mark.parametrize(
    "data, line, byte, reason",
    [
        (b"\xffalternatives: x y\n", 1, 0xFF, "invalid start byte"),
        (b"\xef\xbb\xbfalternatives: x\x80 y\n", 1, 0x80, "invalid start byte"),
        (b"# a\nb\r\nc\rd\r\r\n\xc3(", 6, 0xC3, "invalid continuation byte"),
        (b"# \xc3\xa9\f\xc2\x85\n# \xe2\x80\xa8 \xe9", 2, 0xE9, "unexpected end of data"),
    ],
)
def test_decode_error_names_the_line_and_the_byte(data, line, byte, reason):
    # lines are counted at LF, CRLF and CR only, as the parser counts them
    with pytest.raises(ParseError) as excinfo:
        decode_profile(data)
    assert excinfo.value.line == line
    assert str(excinfo.value) == f"line {line}: byte 0x{byte:02x} is not UTF-8 ({reason})"


def test_parse_keeps_declaration_order():
    profile = parse_profile("alternatives: z9 a_1 B\nvoter: B > z9 ~ a_1\n")
    assert profile.alternative_names == ("z9", "a_1", "B")
    assert profile.voters[0] == wo({2}, {0, 1})


@pytest.mark.parametrize(
    "declared, repeated",
    [("a b b a", "a"), ("a b c c b", "b"), ("x y z y x z", "x"), ("p q r s s", "s")],
)
def test_declaration_error_names_the_first_declared_name_that_repeats(declared, repeated):
    message = rf"^line 1: alternative '{repeated}' declared more than once$"
    with pytest.raises(ParseError, match=message):
        parse_profile(f"alternatives: {declared}\nvoter: {declared.split()[0]}\n")


@pytest.mark.parametrize(
    "text, lineno, reason",
    [
        ("alternatives: x y\nvoter: x > q\n", 2, "unknown"),
        ("alternatives: x y\nvoter: x > x\n", 2, "more than once"),
        ("alternatives: x y z\nvoter: x > y\n", 2, "missing"),
        ("alternatives: x y\nvoter: x > > y\n", 2, "empty group"),
        ("alternatives: x y\nvoter: x > y >\n", 2, "empty group"),
        ("alternatives: x y\nvoter:\n", 2, "empty group"),
        ("alternatives: x y z\nvoter: x ~ ~ y > z\n", 2, "empty name beside a tie mark"),
        ("alternatives: x y z\nvoter: x ~ y ~ > z\n", 2, "empty name beside a tie mark"),
        ("alternatives: x y z\nvoter: = x > y > z\n", 2, "empty name beside a tie mark"),
        ("alternatives: x y\n", None, "no voter"),
        ("alternatives: x y\nvoter: x > y\nalternatives: x y\n", 3, "already declared"),
        ("alternatives: x\nvoter: x\n", 1, "at least two"),
        ("alternatives: x y x\nvoter: x > y\n", 1, "more than once"),
        ("voter: x > y\nalternatives: x y\n", 1, "before"),
        ("alternatives: x y\nvoter: x > y\nballot: x > y\n", 3, "unrecognized"),
        ("alternatives: x y\nvoter: x! > y\n", 2, "not a valid name"),
        ("alternatives: x y%\nvoter: x > y\n", 1, "not a valid name"),
        ("# only a comment\n", None, "alternatives"),
        ("", None, "alternatives"),
    ],
)
def test_parse_errors(text, lineno, reason):
    with pytest.raises(ParseError, match=reason) as excinfo:
        parse_profile(text)
    assert excinfo.value.line == lineno
    if lineno is not None:
        assert f"line {lineno}" in str(excinfo.value)


@pytest.mark.parametrize(
    "ballot, message",
    [
        ("x! > y", "'x!' is not a valid name (use A-Z, a-z, 0-9, _)"),
        ("x > y ~ z%", "'z%' is not a valid name (use A-Z, a-z, 0-9, _)"),
        ("x > q > y", "unknown alternative 'q'"),
        ("x > y ~ x", "'x' appears more than once in this ballot"),
        ("z", "ballot is missing 'x', 'y'"),
        ("x > > y > z", "empty group in ballot"),
        ("", "empty group in ballot"),
        ("x ~ ~ y > z", "empty name beside a tie mark in ballot"),
        ("= x > y > z", "empty name beside a tie mark in ballot"),
        # tokens are checked left to right, each for validity, then for
        # being declared, then for being new to the ballot
        ("q > x!", "unknown alternative 'q'"),
        ("x > x!", "'x!' is not a valid name (use A-Z, a-z, 0-9, _)"),
        ("x > x > q", "'x' appears more than once in this ballot"),
        ("q > x ~", "unknown alternative 'q'"),
        # an empty token is found before any name in its group is checked
        ("x! ~ ~ y", "empty name beside a tie mark in ballot"),
    ],
)
def test_ballot_error_messages(ballot, message):
    with pytest.raises(ParseError) as excinfo:
        parse_profile(f"alternatives: x y z\nvoter: {ballot}\n")
    assert str(excinfo.value) == f"line 2: {message}"


def test_invalid_undeclared_token_is_reported_as_invalid():
    # a token outside the declaration that is not a name at all is
    # reported as invalid, not as an unknown alternative
    with pytest.raises(ParseError) as excinfo:
        parse_profile("alternatives: x y\nvoter: x > y ~ x!\n")
    assert str(excinfo.value) == "line 2: 'x!' is not a valid name (use A-Z, a-z, 0-9, _)"


def test_serialize_canonical_form(example1):
    assert serialize_profile(example1) == EXAMPLE1_TEXT


def test_serialize_uses_tilde_for_ties(example2):
    text = serialize_profile(example2)
    assert "voter: w ~ x > y > z" in text
    assert "=" not in text


@given(profiles())
def test_round_trip(profile):
    parsed = parse_profile(serialize_profile(profile))
    assert parsed == profile
    # the rank matrix is left out of equality, and it is what the checkers read
    assert parsed.ranks == profile.ranks


@given(profiles())
def test_serialization_is_idempotent(profile):
    text = serialize_profile(profile)
    assert serialize_profile(parse_profile(text)) == text


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_ballot_groups_name_each_class_by_id(m):
    names = [f"n{alt}" for alt in range(m)]
    for order in enumerate_weak_orders(m):
        expected = [[names[alt] for alt in sorted(cls)] for cls in order.classes]
        assert ballot_groups(order, names) == expected


def _seeded_profile_text(m, n, seed):
    """n ballots over m alternatives, each alternative at a uniform level 0..m-1."""
    rng = random.Random(seed)
    names = default_alternative_names(m)
    lines = [f"alternatives: {' '.join(names)}"]
    for _ in range(n):
        levels = [rng.randrange(m) for _ in names]
        groups = (
            " ~ ".join(name for name, level in zip(names, levels) if level == value)
            for value in sorted(set(levels))
        )
        lines.append("voter: " + " > ".join(groups))
    return "\n".join(lines) + "\n"


def test_a_parsed_profile_holds_its_rank_rows_only():
    # a frozenset per class would hold about 3 MB here
    text = _seeded_profile_text(10, 2000, 31)
    tracemalloc.start()
    try:
        profile = parse_profile(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.num_voters == 2000
    assert held < 1_000_000
