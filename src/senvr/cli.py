"""Command-line front-end.

Three subcommands: ``check`` decides the value-restriction condition
and the majority outcome for a profile file, ``pm`` displays preference
maps and membership matrices, ``verify`` sweeps generated profiles to
cross-check the condition against majority transitivity.

Exit codes: 0 success; 2 unreadable input, parse error, or out-of-range
request; 3 condition asserted but not satisfied; 4 harness violation or
checker disagreement; 141 stdout closed by its reader.

Each command builds one report, the payload that ``--json`` prints; the
text report is a rendering of that payload.  Renderers yield text pieces,
one per ``check`` triple or ``pm`` voter, and touch no stdout; one loop,
``_write``, writes them, so memory holds the profile and one entry rather
than the whole report.  ``check`` decides all that can fail before a write.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from collections.abc import Iterator, Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path

from senvr import __version__
from senvr.condition import InternalDisagreement, TripleReport, sen_condition
from senvr.harness import HarnessConfig, HarnessMode, HarnessReport, run_harness
from senvr.majority import (
    CycleReport,
    majority_relation,
    pairwise_tallies,
    social_ordering,
)
from senvr.orders import (
    Profile,
    Triple,
    WeakOrder,
    membership_map,
    preference_map,
    restrict,
)
from senvr.profile_io import (
    ballot_groups,
    decode_profile,
    format_ballot,
    parse_profile,
    serialize_profile,
)

__all__ = ["MAX_MEMBERSHIP_CELLS", "MAX_TRIPLES", "MAX_VOTER_TRIPLES", "main"]

# desk-scale guards: ``check`` and each profile of a random ``verify`` visit
# every voter on every triple, C(m, 3) * n voter-triples, and ``check`` lists
# each concerned one; each of the C(m, 3) triples also costs a ``check``
# report entry of a few kilobytes of JSON, whatever the number of voters
MAX_VOTER_TRIPLES = 10**7
MAX_TRIPLES = 10**5
# desk-scale guard for ``pm``: each voter's k x k membership matrix is built
# and listed, k alternatives (3 under --triple), n * k**2 cells in all
MAX_MEMBERSHIP_CELLS = 10**7


def _format_set(positions: Sequence[int]) -> str:
    return "{" + ", ".join(str(p) for p in positions) + "}"


def _read_profile(path: str) -> Profile:
    return parse_profile(decode_profile(Path(path).read_bytes()))


class _IntText(dict):
    """Int -> its JSON text, each rendered on its first lookup."""

    def __missing__(self, key: int) -> str:
        text = self[key] = int.__repr__(key)
        return text


def _dump(value: object, indent: str = "\n", table: _IntText | None = None) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it.

    Only the types a report holds are accepted: dict with str keys,
    list, str, int, bool and None; anything else, an iterator included,
    raises TypeError.  ``json.dumps`` falls back to its pure-Python
    encoder whenever an indent is set; this writer escapes strings with
    the C encoder and joins a list of plain ints in one step, rendering
    each distinct int once per ``table``.  ``indent`` is the newline and
    indentation that precede ``value``'s closing bracket.
    """
    if table is None:
        table = _IntText()
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return table[value]
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        # bool is a subclass of int but not of this set: a list holding
        # a bool takes the general path
        if set(map(type, value)) == {int}:
            items = map(table.__getitem__, value)
        else:
            items = (_dump(item, inner, table) for item in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        # the C encoder raises TypeError on a key that is not a str
        items = (
            encode_basestring_ascii(key) + ": " + _dump(item, inner, table)
            for key, item in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"{kind.__name__} is not a report value")


def _json_report(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"``, in pieces.

    A value of ``payload`` may be an iterator that stands for a list.
    Each of its items is a piece of its own, together with the text
    before it, so that a report need not be held whole.  Each distinct
    int is rendered once per report.
    """
    table = _IntText()
    text, separator = "", "{\n  "
    for key, value in payload.items():
        text += separator + encode_basestring_ascii(key) + ": "
        separator = ",\n  "
        if not isinstance(value, Iterator):
            text += _dump(value, "\n  ", table)
            continue
        empty = True
        for item in value:
            yield text + ("[" if empty else ",") + "\n    " + _dump(item, "\n    ", table)
            text, empty = "", False
        text += "[]" if empty else "\n  ]"
    yield text + ("\n}\n" if payload else "{}\n")


def _write(pieces: Iterator[str]) -> None:
    """Write a report's pieces to stdout, each as soon as it is made."""
    for piece in pieces:
        sys.stdout.write(piece)


def _check_voter_triples(m: int, n: int) -> None:
    """Refuse a profile of more than ``MAX_VOTER_TRIPLES`` voter-triples."""
    count = math.comb(m, 3) * n
    if count > MAX_VOTER_TRIPLES:
        raise ValueError(
            f"C({m},3)*{n} = {count} voter-triples exceed the limit of {MAX_VOTER_TRIPLES}"
        )


# --- check -----------------------------------------------------------------


def _triple_payload(profile: Profile, report: TripleReport) -> dict:
    members = profile.names_of(report.triple)
    if report.oracle_witness is None:
        oracle = None
    else:
        alt, label = report.oracle_witness
        oracle = {"alternative": profile.name_of(alt), "value": label.name.lower()}
    return {
        "members": list(members),
        "concerned": [v + 1 for v in report.concerned],
        "parity_ok": report.parity_ok,
        "value_restricted": report.value_restricted,
        "ineq_witness": (
            None if report.ineq_witness is None else profile.name_of(report.ineq_witness)
        ),
        "union_sets": {
            name: sorted(union) for name, union in zip(members, report.row_unions)
        },
        "sum_matrix": [list(report.sums[i : i + 3]) for i in (0, 3, 6)],
        "eq_witness": (
            None if report.eq_witness is None else [c + 1 for c in report.eq_witness]
        ),
        "oracle_witness": oracle,
    }


def _social_payload(profile: Profile, outcome: WeakOrder | CycleReport) -> dict:
    if isinstance(outcome, WeakOrder):
        ordering = ballot_groups(outcome, profile.alternative_names)
        return {"transitive": True, "ordering": ordering, "cycle": None}
    return {
        "transitive": False,
        "ordering": None,
        "cycle": [profile.name_of(alt) for alt in outcome.witness],
    }


def _render_triple(triple: dict) -> list[str]:
    unions = triple["union_sets"]
    restricted = triple["value_restricted"]
    verdict = "value-restricted" if restricted else "not value-restricted"
    lines = [
        f"triple ({', '.join(triple['members'])}): {verdict}; "
        f"{len(triple['concerned'])} concerned voters "
        f"({'odd' if triple['parity_ok'] else 'even'})",
        "  position unions: "
        + "; ".join(f"{name} {_format_set(union)}" for name, union in unions.items()),
    ]
    if triple["ineq_witness"] is not None:
        row = triple["ineq_witness"]
        lines.append(
            f"  union witness: row {row} "
            f"has {len(unions[row])} < 3 admissible positions"
        )
    if triple["eq_witness"] is None:
        cell = "no zero cell"
    else:
        cell = "zero at cell ({}, {})".format(*triple["eq_witness"])
    lines.append(f"  sum matrix: {triple['sum_matrix']}; {cell}")
    if triple["oracle_witness"] is not None:
        lines.append(
            "  never assigned: {alternative} never takes value {value}".format(
                **triple["oracle_witness"]
            )
        )
    elif not restricted:
        lines.append("  every (alternative, value) pair occurs among concerned voters")
    return lines


def _render_check(payload: dict, num_voters: int) -> Iterator[str]:
    """The text report, in pieces: the header, one per triple, then the rest."""
    names = payload["alternatives"]
    yield f"profile: {len(names)} alternatives ({', '.join(names)}), {num_voters} voters\n\n"
    for triple in payload["triples"]:
        yield "\n".join(_render_triple(triple)) + "\n"
    lines = [""]
    if payload["condition_holds"]:
        lines.append(
            "condition holds (every triple value-restricted, "
            "every concerned count odd)"
        )
    else:
        lines.append("condition does not hold")
    lines.append("tallies (row a, column b: voters ranking a above b):")
    lines.extend(f"  {name}: {row}" for name, row in zip(names, payload["tallies"]))
    social = payload["social"]
    if social["transitive"]:
        lines.append("majority relation is transitive")
        lines.append(f"social ordering: {format_ballot(social['ordering'])}")
    else:
        a, b, c = social["cycle"]
        lines.append("majority relation is not transitive")
        lines.append(f"cycle witness: {a} >= {b}, {b} >= {c}, but not {a} >= {c}")
    yield "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    profile = _read_profile(args.path)
    m = profile.num_alternatives
    _check_voter_triples(m, profile.num_voters)
    num_triples = math.comb(m, 3)
    if num_triples > MAX_TRIPLES:
        raise ValueError(f"C({m},3) = {num_triples} triples exceed the limit of {MAX_TRIPLES}")
    verdict = sen_condition(profile)
    tally = pairwise_tallies(profile)
    payload = {
        "alternatives": list(profile.alternative_names),
        # rendered one triple at a time as the report is written
        "triples": (_triple_payload(profile, r) for r in verdict.per_triple),
        "condition_holds": verdict.condition_holds,
        "tallies": tally.prefer.tolist(),
        "social": _social_payload(profile, social_ordering(majority_relation(tally))),
    }
    _write(_json_report(payload) if args.json else _render_check(payload, profile.num_voters))
    if args.assert_sen and not verdict.condition_holds:
        return 3
    return 0


# --- pm --------------------------------------------------------------------


def _voter_payload(index: int, order: WeakOrder, names: list[str]) -> dict:
    pm = preference_map(order)
    return {
        "voter": index,
        "ordering": ballot_groups(order, names),
        "preference_map": {names[alt]: sorted(row) for alt, row in enumerate(pm.rows)},
        "membership_matrix": membership_map(pm).entries.tolist(),
    }


def _render_voter(voter: dict) -> list[str]:
    return [
        "",
        f"voter {voter['voter']}: {format_ballot(voter['ordering'])}",
        "  preference map:",
        *(f"    {name}: {_format_set(row)}" for name, row in voter["preference_map"].items()),
        "  membership matrix:",
        *("    " + " ".join(str(v) for v in row) for row in voter["membership_matrix"]),
    ]


def _render_pm(payload: dict) -> Iterator[str]:
    """The text report, in pieces: the header, then one per voter."""
    lines = [f"alternatives: {' '.join(payload['alternatives'])}"]
    if payload["triple"] is not None:
        lines.append(f"triple: ({', '.join(payload['triple'])})")
    yield "\n".join(lines) + "\n"
    for voter in payload["voters"]:
        yield "\n".join(_render_voter(voter)) + "\n"


def cmd_pm(args: argparse.Namespace) -> int:
    profile = _read_profile(args.path)
    triple: Triple | None = None
    if args.triple is not None:
        triple = profile.triple_of_names([t.strip() for t in args.triple.split(",")])
    if triple is None:
        local_names = list(profile.alternative_names)
        orders = profile.voters
    else:
        local_names = [profile.name_of(alt) for alt in triple]
        orders = (restrict(voter, triple) for voter in profile.voters)
    n, k = profile.num_voters, len(local_names)
    if n * k * k > MAX_MEMBERSHIP_CELLS:
        raise ValueError(
            f"{n}*{k}^2 = {n * k * k} membership cells exceed "
            f"the limit of {MAX_MEMBERSHIP_CELLS}"
        )
    payload = {
        "alternatives": list(profile.alternative_names),
        "triple": None if triple is None else local_names,
        # rendered one voter at a time as the report is written
        "voters": (
            _voter_payload(index, order, local_names)
            for index, order in enumerate(orders, start=1)
        ),
    }
    _write(_json_report(payload) if args.json else _render_pm(payload))
    return 0


# --- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    mode = HarnessMode.EXHAUSTIVE if args.exhaustive else HarnessMode.RANDOM
    config = HarnessConfig(
        m=args.m,
        n=args.n,
        mode=mode,
        trials=args.trials if mode is HarnessMode.RANDOM else 1,
        seed=args.seed if mode is HarnessMode.RANDOM else 0,
    )
    if mode is HarnessMode.RANDOM:
        # an exhaustive sweep is bounded by its enumeration budget instead
        _check_voter_triples(config.m, config.n)
    report = run_harness(config)
    payload = {
        "mode": mode.value,
        "m": config.m,
        "n": config.n,
        "trials": config.trials if mode is HarnessMode.RANDOM else None,
        "seed": config.seed if mode is HarnessMode.RANDOM else None,
        **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
    }
    payload["violations"] = [serialize_profile(p) for p in report.violations]
    _write(_json_report(payload) if args.json else _render_verify(payload))
    return 0 if not report.violations else 4


def _render_verify(payload: dict) -> Iterator[str]:
    """The text report, in pieces: the counts, then one per violation."""
    header = "mode: exhaustive (m={m}, n={n})"
    if payload["mode"] == HarnessMode.RANDOM.value:
        header = "mode: random (m={m}, n={n}, trials={trials}, seed={seed})"
    # HarnessReport's fields in declaration order: a new field fails this
    # unpacking until it is rendered too
    tested, held, held_transitive, failed, failed_transitive, violations = (
        payload[field.name] for field in dataclasses.fields(HarnessReport)
    )
    lines = [
        header.format(**payload),
        f"profiles tested: {tested}",
        f"condition held: {held} (transitive: {held_transitive})",
        f"condition failed: {failed} (transitive anyway: {failed_transitive})",
        f"violations: {len(violations)}",
    ]
    yield "\n".join(lines) + "\n"
    for i, text in enumerate(violations, start=1):
        yield f"violation {i} (condition holds, majority relation intransitive):\n" + "".join(
            "    " + line + "\n" for line in text.splitlines()
        )


# --- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senvr",
        description=(
            "Decide the value-restriction condition for ranked-ballot "
            "profiles and test majority-rule transitivity."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check",
        help="analyze a profile file: condition verdict, tallies, social ordering",
    )
    check.add_argument("path", help="profile file to analyze")
    check.add_argument("--json", action="store_true", help="emit a JSON report")
    check.add_argument(
        "--assert-sen",
        action="store_true",
        dest="assert_sen",
        help="exit with status 3 when the condition does not hold",
    )
    check.set_defaults(func=cmd_check)

    pm = sub.add_parser(
        "pm", help="show each voter's preference map and membership matrix"
    )
    pm.add_argument("path", help="profile file to display")
    pm.add_argument(
        "--triple",
        metavar="A,B,C",
        help="restrict every ballot to these three alternatives first",
    )
    pm.add_argument("--json", action="store_true", help="emit a JSON report")
    pm.set_defaults(func=cmd_pm)

    verify = sub.add_parser(
        "verify",
        help="sweep generated profiles: condition versus majority transitivity",
    )
    verify.add_argument("--m", type=int, required=True, help="alternatives per profile")
    verify.add_argument("--n", type=int, required=True, help="voters per profile")
    mode = verify.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--exhaustive", action="store_true", help="every profile of the given size"
    )
    mode.add_argument(
        "--random", action="store_true", help="seeded uniform random profiles"
    )
    verify.add_argument(
        "--trials", type=int, default=1000, help="random profiles to draw"
    )
    verify.add_argument("--seed", type=int, default=0, help="random stream seed")
    verify.add_argument("--json", action="store_true", help="emit a JSON report")
    verify.set_defaults(func=cmd_verify)
    return parser


# parsing leaves the tree unchanged, so every call shares one
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at the null device
        # so that the flush at exit stays silent, and exit as a shell does
        # after SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDisagreement as exc:
        print(f"internal checker disagreement: {exc}", file=sys.stderr)
        return 4
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
