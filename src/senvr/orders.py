"""Weak-order preferences and their position-set representations.

A weak order (complete, reflexive, transitive) over ``m`` alternatives is
stored as its dense rank row: the index of every alternative's
indifference class, best class 0.  The ordered partition into classes,
best first, and the class count are derived from the row when read.
Two positional encodings are derived from the row as well:

* a preference map: for every alternative, the set of ranking positions it
  may occupy, which is the consecutive run of positions spanned by its
  indifference class.  With ``p`` the number of strictly better alternatives
  and ``s`` the size of the alternative's class, the row is
  ``{p + 1, ..., p + s}``;
* a membership matrix: the m-by-m 0/1 incidence matrix of alternatives
  against positions.

Alternatives are 0-based integer ids into the name table of a
:class:`Profile`; ranking positions are 1-based throughout.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

AlternativeId = int


class PartitionError(ValueError):
    """The given classes do not form an ordered partition of the universe."""


class UnknownAlternative(LookupError):
    """An alternative name is not declared in the profile."""


@dataclass(frozen=True, init=False, repr=False)
class WeakOrder:
    """Weak order over ``{0, ..., m-1}``, stored as its dense rank row.

    ``WeakOrder(classes)`` takes the ordered partition, most preferred
    class first; ``classes`` and ``num_classes`` derive it again from the
    row on each read.  The row is the one field, so equality and hash go
    through it alone.  Instances are immutable.
    """

    # not slots=True: assigning a non-field name would raise TypeError, not FrozenInstanceError
    __slots__ = ("ranks",)
    # class index of every alternative (0 = most preferred class)
    ranks: tuple[int, ...]

    def __init__(self, classes: Sequence[frozenset[int]]) -> None:
        if not classes:
            raise PartitionError("a weak order needs at least one class")
        seen: set[int] = set()
        total = 0
        for cls in classes:
            if not cls:
                raise PartitionError("indifference classes must be nonempty")
            if cls & seen:
                dup = sorted(cls & seen)
                raise PartitionError(f"alternatives {dup} appear in more than one class")
            seen |= cls
            total += len(cls)
        if seen != set(range(total)):
            raise PartitionError(
                f"classes must partition 0..{total - 1}, got ids {sorted(seen)}"
            )
        rank = [0] * total
        for idx, cls in enumerate(classes):
            for alt in cls:
                rank[alt] = idx
        object.__setattr__(self, "ranks", tuple(rank))

    def __reduce__(self) -> tuple:
        # without it, unpickling would restore the slot through the frozen __setattr__
        return self._from_dense, (self.ranks,)

    def __repr__(self) -> str:
        return f"WeakOrder(classes={self.classes!r})"

    @classmethod
    def from_ranks(cls, ranks: Iterable[int]) -> WeakOrder:
        """The weak order in which alternative ``i`` sits in the class of ``ranks[i]``.

        Lower values are preferred and equal values tie; the values need
        not be consecutive, only comparable.  ``ranks`` is read once.

        Raises
        ------
        PartitionError
            If ``ranks`` is empty or holds a value unequal to itself (NaN).
        """
        row = tuple(ranks)
        values = sorted(set(row))
        if not values:
            raise PartitionError("a weak order needs at least one class")
        if any(value != value for value in values):  # NaN: its class would be empty
            raise PartitionError("indifference classes must be nonempty")
        dense = {value: i for i, value in enumerate(values)}
        return cls._from_dense(tuple(dense[r] for r in row))

    @classmethod
    def _from_dense(cls, row: tuple[int, ...]) -> WeakOrder:
        """The weak order in which alternative ``i`` sits in class ``row[i]``,
        unchecked: ``row`` must be a tuple of Python ints covering 0..max(row)."""
        order = object.__new__(cls)
        object.__setattr__(order, "ranks", row)
        return order

    @property
    def num_classes(self) -> int:
        return max(self.ranks) + 1

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        """The indifference classes, best first, derived from ``ranks`` on
        each read and not kept."""
        members: list[list[int]] = [[] for _ in range(self.num_classes)]
        for alt, rank in enumerate(self.ranks):
            members[rank].append(alt)
        return tuple(map(frozenset, members))

    @property
    def num_alternatives(self) -> int:
        return len(self.ranks)

    def rank_of(self, alt: AlternativeId) -> int:
        return self.ranks[alt]

    def prefers(self, a: AlternativeId, b: AlternativeId) -> bool:
        """True iff ``a`` is strictly preferred to ``b``."""
        return self.ranks[a] < self.ranks[b]

    def at_least_as_good(self, a: AlternativeId, b: AlternativeId) -> bool:
        return self.ranks[a] <= self.ranks[b]


@dataclass(frozen=True)
class PreferenceMap:
    """Per-alternative sets of admissible 1-based ranking positions."""

    rows: tuple[frozenset[int], ...]


# Entries each of the per-order caches below keeps.  The shape table
# consults 13 orders over a triple, once; other callers, such as `pm` on a
# large file, rarely see an order twice, so a larger bound would only keep
# every voter's results alive after the call returns.
_ORDER_CACHE_SIZE = 64


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def preference_map(order: WeakOrder) -> PreferenceMap:
    """Positions spanned by each alternative's indifference class.

    Row ``i`` is ``{p+1, ..., p+s}`` where ``p`` counts the alternatives
    strictly preferred to ``i`` and ``s`` is the size of ``i``'s class.
    """
    sizes = [0] * order.num_classes
    for rank in order.ranks:
        sizes[rank] += 1
    starts = itertools.accumulate(sizes, initial=0)
    spans = [frozenset(range(p + 1, p + s + 1)) for p, s in zip(starts, sizes)]
    return PreferenceMap(tuple(spans[rank] for rank in order.ranks))


@dataclass(frozen=True, eq=False)
class MembershipMatrix:
    """0/1 incidence matrix: ``entries[i, j-1] = 1`` iff position ``j`` is
    admissible for alternative ``i``."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=int)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MembershipMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def membership_map(pm: PreferenceMap) -> MembershipMatrix:
    """The 0/1 matrix equivalent of a preference map."""
    m = len(pm.rows)
    entries = np.zeros((m, m), dtype=int)
    for i, row in enumerate(pm.rows):
        for j in row:
            entries[i, j - 1] = 1
    return MembershipMatrix(entries)


@dataclass(frozen=True)
class Triple:
    """Canonical unordered triple of alternatives, stored ascending."""

    members: tuple[int, int, int]

    def __post_init__(self) -> None:
        a, b, c = self.members
        if not a < b < c:
            raise ValueError(f"triple members must be strictly ascending, got {self.members}")

    @classmethod
    def of(cls, a: int, b: int, c: int) -> Triple:
        x, y, z = sorted((a, b, c))
        return cls((x, y, z))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def triples(m: int) -> Iterator[Triple]:
    """All canonical triples over ``m`` alternatives, ascending."""
    for combo in itertools.combinations(range(m), 3):
        yield Triple(combo)


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def restrict(order: WeakOrder, subset: Triple) -> WeakOrder:
    """Induced weak order on a triple, re-indexed to local ids 0..2.

    Non-members are dropped, emptied classes deleted, and the class
    ordering kept; local id ``i`` is the i-th triple member.
    """
    return WeakOrder.from_ranks([order.ranks[alt] for alt in subset.members])


def is_unconcerned(order: WeakOrder, subset: Triple) -> bool:
    """True iff the voter is indifferent between all three members."""
    r0 = order.rank_of(subset.members[0])
    return all(order.rank_of(alt) == r0 for alt in subset.members[1:])


@dataclass(frozen=True)
class Profile:
    """A named alternative set plus one weak order per voter."""

    alternative_names: tuple[str, ...]
    voters: tuple[WeakOrder, ...]
    # the rank matrix: every voter's ranks, in voter order
    ranks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.alternative_names)
        if m < 2:
            raise ValueError("a profile needs at least two alternatives")
        if len(set(self.alternative_names)) != m:
            raise ValueError("alternative names must be distinct")
        if not self.voters:
            raise ValueError("a profile needs at least one voter")
        object.__setattr__(self, "ranks", tuple(order.ranks for order in self.voters))
        for i, row in enumerate(self.ranks):
            if len(row) != m:
                raise ValueError(f"voter {i + 1} ranks {len(row)} alternatives, expected {m}")

    @property
    def num_alternatives(self) -> int:
        return len(self.alternative_names)

    @property
    def num_voters(self) -> int:
        return len(self.voters)

    def index_of(self, name: str) -> int:
        try:
            return self.alternative_names.index(name)
        except ValueError:
            raise UnknownAlternative(f"unknown alternative {name!r}") from None

    def name_of(self, alt: AlternativeId) -> str:
        return self.alternative_names[alt]

    def names_of(self, alts: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.alternative_names[a] for a in alts)

    def triple_of_names(self, names: Sequence[str]) -> Triple:
        if len(names) != 3:
            raise ValueError(f"expected exactly 3 names, got {len(names)}")
        ids = [self.index_of(n) for n in names]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"alternative {name!r} appears more than once in the triple")
        return Triple.of(*ids)
