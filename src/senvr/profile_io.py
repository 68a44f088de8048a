"""Plain-text profile format: one declaration line, one line per ballot.

::

    # comments run to end of line
    alternatives: w x y z
    voter: w ~ x > y > z      # groups best to worst, ~ or = ties

Names match ``[A-Za-z0-9_]+`` and every ballot must mention every
declared alternative exactly once.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence

from senvr.orders import Profile, WeakOrder

__all__ = ["ParseError", "decode_profile", "parse_profile", "serialize_profile"]

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TIE_RE = re.compile(r"[~=]")
# only these break lines: str.splitlines also breaks at form feed,
# U+2028 and other characters that may sit inside a comment
_LINE_BREAK = r"\r\n?|\n"
_LINE_BREAK_BYTES = re.compile(_LINE_BREAK.encode("ascii"))


class ParseError(ValueError):
    """Malformed profile text; ``line`` is 1-based (None for whole-document errors)."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        super().__init__(reason if line is None else f"line {line}: {reason}")


def _checked_name(token: str, line: int) -> str:
    if not _NAME_RE.match(token):
        raise ParseError(line, f"{token!r} is not a valid name (use A-Z, a-z, 0-9, _)")
    return token


def _parse_declaration(rest: str, line: int) -> tuple[str, ...]:
    names = tuple(_checked_name(token, line) for token in rest.split())
    if len(names) < 2:
        raise ParseError(line, "declare at least two alternatives")
    counts = Counter(names)
    if len(counts) != len(names):
        # the first name, in declaration order, that occurs more than once
        name = next(name for name in names if counts[name] > 1)
        raise ParseError(line, f"alternative {name!r} declared more than once")
    return names


def _parse_ballot(rest: str, line: int, index: dict[str, int]) -> WeakOrder:
    row = [-1] * len(index)  # each name's group index; the checks make it dense
    groups = rest.split(">")
    for rank, group in enumerate(groups):
        tokens = [t.strip() for t in _TIE_RE.split(group)]
        if "" in tokens:
            empty = "group" if tokens == [""] else "name beside a tie mark"
            raise ParseError(line, f"empty {empty} in ballot")
        for name in tokens:
            alt = index.get(name)
            # a declared name was checked when it was declared
            if alt is None:
                _checked_name(name, line)
                raise ParseError(line, f"unknown alternative {name!r}")
            if row[alt] >= 0:
                raise ParseError(line, f"{name!r} appears more than once in this ballot")
            row[alt] = rank
    if -1 in row:
        missing = [name for name, alt in index.items() if row[alt] < 0]
        raise ParseError(line, f"ballot is missing {', '.join(repr(n) for n in missing)}")
    return WeakOrder._from_dense(tuple(row))


def decode_profile(data: bytes) -> str:
    """The UTF-8 text of a profile file's bytes; a byte that is not valid
    UTF-8 raises ParseError on its 1-based line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK_BYTES.findall(data, 0, exc.start)) + 1
        byte = data[exc.start]
        raise ParseError(line, f"byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from None


def parse_profile(text: str) -> Profile:
    """Parse profile text (UTF-8 string, LF, CRLF or CR line ends, an
    optional leading byte-order mark) into a Profile."""
    index: dict[str, int] | None = None  # name -> id, in declaration order
    voters: list[WeakOrder] = []
    lines = re.split(_LINE_BREAK, text.removeprefix("\ufeff"))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alternatives:"):
            if index is not None:
                raise ParseError(lineno, "alternatives already declared")
            names = _parse_declaration(line[len("alternatives:"):], lineno)
            index = {name: i for i, name in enumerate(names)}
        elif line.startswith("voter:"):
            if index is None:
                raise ParseError(lineno, "voter line before alternatives declaration")
            voters.append(_parse_ballot(line[len("voter:"):], lineno, index))
        else:
            raise ParseError(
                lineno, "unrecognized line (expected 'alternatives:' or 'voter:')"
            )
    if index is None:
        raise ParseError(None, "no alternatives declaration found")
    if not voters:
        raise ParseError(None, "no voter lines found")
    return Profile(tuple(index), tuple(voters))


def ballot_groups(order: WeakOrder, names: Sequence[str]) -> list[list[str]]:
    """The names in each class of ``order``, best class first, each class by id."""
    groups: list[list[str]] = [[] for _ in range(order.num_classes)]
    for name, rank in zip(names, order.ranks):
        groups[rank].append(name)
    return groups


def format_ballot(groups: Iterable[Iterable[str]]) -> str:
    """Ballot text for name groups, best first: ``x ~ y > z``."""
    return " > ".join(" ~ ".join(group) for group in groups)


def serialize_profile(profile: Profile) -> str:
    """Canonical text for a profile; parsing it back gives an equal Profile."""
    lines = ["alternatives: " + " ".join(profile.alternative_names)]
    for voter in profile.voters:
        lines.append("voter: " + format_ballot(ballot_groups(voter, profile.alternative_names)))
    return "\n".join(lines) + "\n"
