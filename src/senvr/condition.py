"""Value-restriction checks over alternative triples.

A triple of alternatives is value-restricted when some alternative never
takes some value (best, medium or worst) in any concerned voter's
preference over the triple.  Voters indifferent between all three members
are unconcerned and excluded.  The verdict is decided three independent
ways, which must agree:

* union check: some triple row's admissible positions, united over the
  concerned voters, cover fewer than 3 positions;
* membership check: the entrywise sum of the concerned voters' 3x3
  membership matrices has a zero entry;
* qualitative check: some (alternative, value) pair is taken by no
  concerned voter, with values read straight off the class structure.

The aggregate condition additionally requires an odd number of concerned
voters on every triple.

The three ``check_*`` functions are the per-voter reference definitions.
:func:`sen_condition` reaches the same verdicts by counting: restricted to
a triple, a ballot has one of 13 shapes, so each check depends only on
which shapes occur and the membership sum only on how many voters have
each shape.  Its one shape table is built once, from the 13 orders over
a triple read through the reference representations, and each shape's
three readings are compared there, so they cannot split on any triple;
total indifference is empty in it, as unconcerned voters add nothing to
the sums.  A triple then costs one count per shape that occurs.
The triples over m alternatives, and their members as an index array,
are likewise built once per m, not once per profile.
A profile of at least ``ARRAY_MIN_VOTER_TRIPLES`` voter-triples is
decided over its rank matrix, a block of triples at a time: one
``bincount`` counts every triple's shape codes and one product with the
table's 27 x 9 matrix form turns the counts into sums.  A smaller
profile, such as a sweep's, is decided a triple at a time, each triple
the first time its report is read.  The condition is a conjunction over
the triples, so reading only ``condition_holds`` stops at the first
failing triple, and a sweep decides few triples per profile.
A :class:`TripleReport` stores only the triple, the concerned voters and
the nine sums; every verdict, witness and union is a reading of the sums.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from senvr.orders import (
    AlternativeId,
    Profile,
    Triple,
    WeakOrder,
    is_unconcerned,
    membership_map,
    preference_map,
    restrict,
    triples,
)


class InternalDisagreement(RuntimeError):
    """The three equivalent checkers returned different verdicts (a bug)."""


class ValueLabel(enum.Enum):
    """Characteristic of an alternative within a triple; the enum value is
    the corresponding 1-based ranking position."""

    BEST = 1
    MEDIUM = 2
    WORST = 3


def concerned_set(profile: Profile, triple: Triple) -> frozenset[int]:
    """Indices of the voters not indifferent between all triple members."""
    return frozenset(
        k
        for k, voter in enumerate(profile.voters)
        if not is_unconcerned(voter, triple)
    )


def row_position_unions(
    profile: Profile, triple: Triple
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Union of each triple row's admissible positions over concerned voters."""
    unions = [frozenset(), frozenset(), frozenset()]
    for k in sorted(concerned_set(profile, triple)):
        rows = preference_map(restrict(profile.voters[k], triple)).rows
        unions = [u | row for u, row in zip(unions, rows)]
    return tuple(unions)


def check_union_inequality(
    profile: Profile, triple: Triple
) -> tuple[bool, AlternativeId | None]:
    """Union check: is some row's position union smaller than 3?

    Returns the verdict and the first qualifying alternative in triple
    order (``None`` when the triple is not value-restricted).  An empty
    concerned set qualifies vacuously via its first row.
    """
    for local, union in enumerate(row_position_unions(profile, triple)):
        if len(union) < 3:
            return True, triple.members[local]
    return False, None


def check_membership_equation(
    profile: Profile, triple: Triple
) -> tuple[bool, tuple[int, int] | None, np.ndarray]:
    """Membership check: does the summed 3x3 membership matrix hit zero?

    Returns the verdict, the first zero cell in row-major order as 0-based
    ``(row, column)`` (``None`` if there is no zero), and the sum matrix.
    """
    sums = np.zeros((3, 3), dtype=int)
    for k in sorted(concerned_set(profile, triple)):
        restricted = restrict(profile.voters[k], triple)
        sums += membership_map(preference_map(restricted)).entries
    for i in range(3):
        for j in range(3):
            if sums[i, j] == 0:
                sums.setflags(write=False)
                return True, (i, j), sums
    sums.setflags(write=False)
    return False, None, sums


@lru_cache(maxsize=None)
def value_set(order: WeakOrder, alt: AlternativeId) -> frozenset[ValueLabel]:
    """Values an alternative takes in a three-element order, ties included.

    Best means at least as good as both others, worst means both others
    are at least as good, and medium means the alternative fits between
    the other two under some assignment.
    """
    if order.num_alternatives != 3:
        raise ValueError("value_set needs an order over exactly 3 alternatives")
    first, second = (b for b in range(3) if b != alt)
    geq = order.at_least_as_good
    labels = set()
    if geq(alt, first) and geq(alt, second):
        labels.add(ValueLabel.BEST)
    if (geq(first, alt) and geq(alt, second)) or (geq(second, alt) and geq(alt, first)):
        labels.add(ValueLabel.MEDIUM)
    if geq(first, alt) and geq(second, alt):
        labels.add(ValueLabel.WORST)
    return frozenset(labels)


def check_value_restriction_oracle(
    profile: Profile, triple: Triple
) -> tuple[bool, tuple[AlternativeId, ValueLabel] | None]:
    """Qualitative check: some (alternative, value) pair that no concerned
    voter realizes.

    The witness is the first such pair, alternatives in triple order and
    values best before medium before worst.
    """
    taken: list[set[ValueLabel]] = [set(), set(), set()]
    for k in sorted(concerned_set(profile, triple)):
        restricted = restrict(profile.voters[k], triple)
        for local in range(3):
            taken[local] |= value_set(restricted, local)
    for local in range(3):
        for label in ValueLabel:
            if label not in taken[local]:
                return True, (triple.members[local], label)
    return False, None


@dataclass(frozen=True, eq=False)
class TripleReport:
    """One triple's concerned voters and membership sums, the equation form.

    ``sums`` holds the nine sums in row-major order: cell ``3*i + j``
    counts the concerned voters for whom member ``i`` may take position
    ``j + 1``.  Every verdict, witness and union is a reading of it.
    """

    triple: Triple
    concerned: tuple[int, ...]
    sums: tuple[int, ...]

    @property
    def parity_ok(self) -> bool:
        return len(self.concerned) % 2 == 1

    @property
    def value_restricted(self) -> bool:
        return 0 in self.sums

    @property
    def eq_witness(self) -> tuple[int, int] | None:
        """The first zero cell as 0-based ``(row, column)``, in row-major order;
        the other two witnesses name its member and its value."""
        return divmod(self.sums.index(0), 3) if self.value_restricted else None

    @property
    def ineq_witness(self) -> AlternativeId | None:
        cell = self.eq_witness
        return None if cell is None else self.triple.members[cell[0]]

    @property
    def oracle_witness(self) -> tuple[AlternativeId, ValueLabel] | None:
        cell = self.eq_witness
        return None if cell is None else (self.ineq_witness, ValueLabel(cell[1] + 1))

    @property
    def row_unions(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """Each member's admissible positions over the concerned voters."""
        return tuple(
            frozenset(j + 1 for j in range(3) if self.sums[3 * i + j]) for i in range(3)
        )

    @property
    def sum_matrix(self) -> np.ndarray:
        """The sums as a new read-only 3x3 array."""
        matrix = np.array(self.sums, dtype=int).reshape(3, 3)
        matrix.setflags(write=False)
        return matrix


@dataclass(frozen=True, eq=False)
class SenVerdict:
    """Per-triple reports; the condition holds iff every triple passes.

    ``per_triple`` is a read-only sequence of the reports in triple order:
    a tuple when the array pass decided them, otherwise a sequence that
    decides each triple the first time it is read.  So ``condition_holds``
    stops at the first failing triple.
    """

    per_triple: Sequence[TripleReport]

    @property
    def condition_holds(self) -> bool:
        return all(r.value_restricted and r.parity_ok for r in self.per_triple)


# A voter's shape on a triple (a, b, c) of ranks is
# 9*sgn(a-b) + 3*sgn(b-c) + sgn(a-c) + 13: one code for each of the 13 weak
# orders over three alternatives, 13 itself meaning total indifference.
_UNCONCERNED = 13
_FIRST_TRIPLE = Triple((0, 1, 2))


def _shape_codes(ranks: tuple[tuple[int, ...], ...], triple: Triple) -> list[int]:
    """Every voter's shape code on ``triple``, in voter order."""
    x, y, z = triple.members
    return [
        9 * ((r[x] > r[y]) - (r[x] < r[y]))
        + 3 * ((r[y] > r[z]) - (r[y] < r[z]))
        + (r[x] > r[z]) - (r[x] < r[z])
        + 13
        for r in ranks
    ]


@lru_cache(maxsize=None)
def _shape_table() -> tuple[tuple[tuple[int, ...] | None, ...], np.ndarray]:
    """What a voter of each ballot shape adds to a triple's nine sums.

    Built from the 13 weak orders over the triple (0, 1, 2), each restricted
    to it and read three ways: the preference map's admissible positions,
    the membership matrix and the value sets, each as 9 bits, bit
    ``3*i + j`` set iff row ``i`` admits position (value) ``j + 1``.  Unequal
    readings raise :class:`InternalDisagreement`.  Returns one table in two
    forms, indexed by shape code: 27 slots of the cells ``3*row + column``
    where the membership matrix is 1, for the per-triple loop, and the
    read-only 27 x 9 matrix that is 1 on them, for the array pass.  Total
    indifference (13) is empty in both, as unconcerned voters add nothing
    to the sums; the 14 codes no order has are ``None`` and zero rows.
    """
    rows: list[tuple[int, ...] | None] = [None] * 27
    table = np.zeros((27, 9), dtype=np.int64)
    for ranks in itertools.product(range(3), repeat=3):
        (code,) = _shape_codes((ranks,), _FIRST_TRIPLE)
        if rows[code] is not None:
            continue
        order = restrict(WeakOrder.from_ranks(ranks), _FIRST_TRIPLE)
        pm = preference_map(order)
        by_union = sum(1 << (3 * i + p - 1) for i, row in enumerate(pm.rows) for p in row)
        cells = tuple(np.flatnonzero(membership_map(pm).entries).tolist())
        by_membership = sum(1 << cell for cell in cells)
        by_value = sum(
            1 << (3 * i + label.value - 1) for i in range(3) for label in value_set(order, i)
        )
        if not by_union == by_membership == by_value:
            raise InternalDisagreement(
                f"checkers disagree on triple {_FIRST_TRIPLE.members} for shape {code}: "
                f"union={by_union:09b} membership={by_membership:09b} "
                f"qualitative={by_value:09b} (bit 3*row + column)"
            )
        rows[code] = () if code == _UNCONCERNED else cells
        table[code, list(rows[code])] = 1
    table.setflags(write=False)
    return tuple(rows), table


def _triple_report(
    triple: Triple, codes: list[int], rows: tuple[tuple[int, ...] | None, ...]
) -> TripleReport:
    """Decide one triple from how many of its voters have each shape."""
    shapes = set(codes)
    if _UNCONCERNED in shapes:
        concerned = tuple(k for k, code in enumerate(codes) if code != _UNCONCERNED)
    else:
        concerned = tuple(range(len(codes)))
    sums = [0] * 9
    for code in shapes:
        count = codes.count(code)
        for cell in rows[code]:
            sums[cell] += count
    return TripleReport(triple, concerned, tuple(sums))


class _TripleReports(Sequence):
    """A profile's triple reports in triple order, each decided when first read.

    A report is decided by :func:`_triple_report` the first time its index
    is read, by indexing, slicing or iteration, and kept in that index's
    slot.  Slots are only ever stored into, never appended to, so readers
    in any order, interleaved iterators included, see the same report at
    the same index.  Threads that read one undecided slot at once may each
    decide it: they get equal reports, and the last one stored is kept.
    ``len`` decides nothing.  ``repr``, copies and pickles decide every
    triple and read as the tuple of reports.
    """

    __slots__ = ("_ranks", "_layout", "_rows", "_reports")

    def __init__(
        self,
        ranks: tuple[tuple[int, ...], ...],
        layout: tuple[Triple, ...],
        rows: tuple[tuple[int, ...] | None, ...],
    ) -> None:
        self._ranks = ranks
        self._layout = layout
        self._rows = rows
        self._reports: list[TripleReport | None] = [None] * len(layout)

    def __len__(self) -> int:
        return len(self._reports)

    def _report(self, index: int) -> TripleReport:
        report = self._reports[index]
        if report is None:
            triple = self._layout[index]
            report = _triple_report(triple, _shape_codes(self._ranks, triple), self._rows)
            self._reports[index] = report
        return report

    def __getitem__(self, index):
        picked = range(len(self._reports))[index]
        if isinstance(picked, range):
            return tuple(map(self._report, picked))
        return self._report(picked)

    def __iter__(self) -> Iterator[TripleReport]:
        return map(self._report, range(len(self._reports)))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


# Profiles with at least this many voter-triples, C(m, 3) * n, are decided
# by the array pass; smaller ones get a _TripleReports, which decides each
# triple when it is read.  The array pass costs some 18 us of NumPy calls
# up front and little more per voter-triple; the loop costs about 0.45 us
# per voter of each triple it decides.  Per seeded random profile (best of
# 5, 2 cores, Python 3.11), loop against array pass:
# - a full read, as `check` makes, breaks even at about 30 voter-triples
#   for m >= 4 and about 100 for m = 3;
# - an early-exit read, `condition_holds` alone, as a sweep makes, stops
#   at the first failing triple and breaks even at about 100 voter-triples
#   for m = 3 (one triple: nothing to skip), 1,000 for m = 4 and past
#   2,500 for m = 5 (m = 5, n = 7: 8 against 32 us; m = 8, n = 7: 9
#   against 87 us).
# verify-exhaustive (3 voter-triples) and verify-random (70) take the loop,
# check-large (36,120) the array pass.  Below 512, a `check`, which reads
# every triple, pays for the loop: 0.2 to 0.6 ms at most (m = 4, n = 127:
# 0.28 against 0.08 ms; m = 15, n = 1: 1.06 against 0.51 ms), next to some
# 150 ms of process start.  So does a sweep of 100 to 511 voters at m = 3:
# up to 60 us a profile.
ARRAY_MIN_VOTER_TRIPLES = 512

# The array pass works on blocks of triples with about this many cells in
# its largest arrays, voters x triples shape codes and triples x 27 counts
# (one triple at least), so its working arrays stay small however wide or
# tall the profile is.
_BLOCK_CELLS = 1 << 13


# bounded: an entry holds C(m, 3) triples, and a process rarely decides
# profiles over more than a few alternative counts
@lru_cache(maxsize=16)
def _triple_layout(m: int) -> tuple[tuple[Triple, ...], np.ndarray]:
    """The triples over m >= 3 alternatives, ascending, and their members.

    Returns ``tuple(triples(m))`` and the read-only 3 x C(m, 3) array whose
    column t holds the members of triple t, so a block of triples is a
    slice of both.
    """
    layout = tuple(triples(m))
    members = np.array([triple.members for triple in layout], dtype=np.intp).T.copy()
    members.setflags(write=False)
    return layout, members


def _array_reports(profile: Profile, table: np.ndarray) -> tuple[TripleReport, ...]:
    """Decide every triple by counting shape codes over the rank matrix.

    Per block of triples, a slice of :func:`_triple_layout`, the voters x
    triples shape codes are counted in one ``bincount`` over codes offset
    by 27 per triple, and the counts times the ``table`` matrix of
    :func:`_shape_table` give the sums.
    """
    n = profile.num_voters
    ranks = np.array(profile.ranks).T  # alternatives x voters
    everyone = tuple(range(n))
    size = max(1, _BLOCK_CELLS // max(n, 27))
    layout, members = _triple_layout(profile.num_alternatives)
    reports: list[TripleReport] = []
    for start in range(0, len(layout), size):
        block = layout[start : start + size]
        # a, b, c: the members' ranks, triples x voters each
        a, b, c = ranks[members[:, start : start + size]]
        codes = 9 * np.sign(a - b) + 3 * np.sign(b - c) + np.sign(a - c) + _UNCONCERNED
        offsets = np.arange(0, 27 * len(block), 27)[:, None]
        counts = np.bincount((codes + offsets).ravel(), minlength=27 * len(block))
        counts = counts.reshape(len(block), 27)
        sums = (counts @ table).tolist()
        unconcerned = counts[:, _UNCONCERNED].tolist()
        for triple, voters, row, skipped in zip(block, codes, sums, unconcerned):
            concerned = everyone
            if skipped:
                concerned = tuple(itertools.compress(everyone, (voters != _UNCONCERNED).tolist()))
            reports.append(TripleReport(triple, concerned, tuple(row)))
    return tuple(reports)


def sen_condition(profile: Profile) -> SenVerdict:
    """Check value restriction and concerned-count parity on every triple.

    Each triple's concerned voters of each shape add that shape's
    membership cells from :func:`_shape_table`, whose union, membership and
    qualitative readings were compared when it was built.  A profile of at
    least ``ARRAY_MIN_VOTER_TRIPLES`` voter-triples is decided a block of
    triples at a time over its rank matrix, before this returns.  A smaller
    one is decided triple by triple, each from its voters' shape codes the
    first time its report is read, so ``condition_holds`` stops at the
    first failing triple.  Both walk the one :func:`_triple_layout` of m,
    built on the first profile over m alternatives.  The condition holds
    iff every triple is value-restricted and has an odd number of
    concerned voters.
    """
    m = profile.num_alternatives
    if m < 3:
        raise ValueError("the condition is defined for at least 3 alternatives")
    rows, table = _shape_table()
    layout, _ = _triple_layout(m)
    ranks = profile.ranks
    if len(ranks) * len(layout) >= ARRAY_MIN_VOTER_TRIPLES:
        return SenVerdict(_array_reports(profile, table))
    return SenVerdict(_TripleReports(ranks, layout, rows))
