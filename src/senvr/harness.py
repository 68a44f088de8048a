"""Exhaustive and randomized sweeps over whole preference-profile spaces.

The harness feeds every profile (or a reproducible random stream of
profiles) through the condition checkers and the majority rule, counts
the joint outcomes, and collects any profile that satisfies the
condition yet yields an intransitive social relation.  An empty
violation list over a sweep is the empirical sufficiency evidence.
Neither verdict changes when the voters are permuted, the alternatives
renamed or every ballot reversed: renaming keeps "some alternative never
takes some value" on a triple, reversal swaps best with worst, and the
majority relation is permuted or turned into its converse, which is
transitive iff it is.  So an exhaustive sweep decides one voter multiset
per orbit of the 2·m! relabelings and reversals and counts it by the
orbit's number of ordered profiles.  Majority verdicts are decided per
chunk of profiles, at most ``CHUNK_VOTERS`` ballots or one profile, in
one numpy pass over the chunk's rank array; the condition is decided per
profile.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from senvr.condition import sen_condition
from senvr.majority import transitive_mask
from senvr.orders import Profile, WeakOrder

__all__ = [
    "ENUMERATION_BUDGET",
    "HarnessConfig",
    "HarnessMode",
    "HarnessReport",
    "RangeError",
    "count_weak_orders",
    "default_alternative_names",
    "enumerate_profiles",
    "enumerate_weak_orders",
    "random_profile",
    "run_harness",
]

# desk-scale guards: sweeps stay comfortably under a minute
ENUMERATION_BUDGET = 10**7
MAX_ENUMERATED_ALTERNATIVES = 5
MAX_SAMPLED_ALTERNATIVES = 8
VIOLATION_CAP = 10
# ballots whose profiles' majority verdicts are decided in one numpy pass
# (one profile at least); bounded so a sweep's memory grows with neither
# its length nor its voter count
CHUNK_VOTERS = 2**11


class RangeError(ValueError):
    """A sweep request exceeds the desk-scale size guards."""


class HarnessMode(Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"


def default_alternative_names(m: int) -> tuple[str, ...]:
    """Synthetic names x1..xm for generated profiles."""
    return tuple(f"x{i + 1}" for i in range(m))


# bounded: the sampler needs m <= 8, and rows for large m hold O(m^2) digits
@lru_cache(maxsize=MAX_SAMPLED_ALTERNATIVES)
def _weak_order_counts(m: int) -> tuple[int, ...]:
    """Entry k: weak orders on m alternatives with exactly k classes, k = 0..m.

    Built row by row with F(m, k) = k * (F(m-1, k) + F(m-1, k-1)): the
    m-th alternative either joins one of the k classes of an order on
    the others or opens a new class in one of k places.
    """
    row = [1]  # m = 0: the empty order, with no classes
    for _ in range(m):
        prev = row + [0]
        # F(m, 0) = 0 for m > 0: the k = 0 term is 0 whatever prev[-1] holds
        row = [k * (prev[k] + prev[k - 1]) for k in range(len(prev))]
    return tuple(row)


def count_weak_orders(m: int) -> int:
    """Number of weak orders on m alternatives (the Fubini number of m)."""
    if m < 0:
        raise ValueError("alternative count cannot be negative")
    return sum(_weak_order_counts(m))


@cache
def enumerate_weak_orders(m: int) -> tuple[WeakOrder, ...]:
    """All weak orders on m alternatives, each exactly once.

    Deterministic order: by number of indifference classes, then by
    rank vector.  Guarded to m <= 5 (541 orders); beyond that the
    downstream profile sweeps are out of desk range anyway.
    """
    if not 1 <= m <= MAX_ENUMERATED_ALTERNATIVES:
        raise RangeError(
            f"can enumerate weak orders for 1 <= m <= "
            f"{MAX_ENUMERATED_ALTERNATIVES}, got m={m}"
        )
    orders = {WeakOrder.from_ranks(ranks) for ranks in itertools.product(range(m), repeat=m)}
    return tuple(sorted(orders, key=lambda order: (order.num_classes, order.ranks)))


def _profile_space(m: int, n: int) -> tuple[WeakOrder, ...]:
    """The weak orders whose n-fold product an exhaustive sweep covers.

    The one home of the enumeration guards, checked before any profile
    is built: ValueError if n < 1; RangeError if m is outside
    ``enumerate_weak_orders``' range, then if the Wⁿ ordered profiles
    exceed the enumeration budget.
    """
    if n < 1:
        raise ValueError("a profile needs at least one voter")
    orders = enumerate_weak_orders(m)
    base = len(orders)
    # a power past 4300 digits, Python's default limit for printing an int, is not built
    if n * math.log10(base) >= 4300:
        raise RangeError(f"{base}^{n} profiles exceed the budget of {ENUMERATION_BUDGET}")
    total = base**n
    if total > ENUMERATION_BUDGET:
        raise RangeError(
            f"{base}^{n} = {total} profiles exceed the budget of {ENUMERATION_BUDGET}"
        )
    return orders


def enumerate_profiles(m: int, n: int) -> Iterator[Profile]:
    """All n-voter profiles on m alternatives, lexicographic.

    Voters run through ``enumerate_weak_orders(m)`` like digits, the
    last voter fastest.  Raises RangeError before yielding anything if
    m is outside ``enumerate_weak_orders``' range or the sweep would
    exceed the enumeration budget.
    """
    orders = _profile_space(m, n)
    names = default_alternative_names(m)
    return (Profile(names, voters) for voters in itertools.product(orders, repeat=n))


@cache
def _symmetry_table(m: int) -> np.ndarray:
    """Row g, column i: the ``enumerate_weak_orders(m)`` index of order i's image under g.

    G relabels the alternatives (m! permutations, the identity first) and
    then may reverse every ballot, best class becoming worst: 2·m! rows,
    row 0 the identity.  Read-only.  Relabeling or reversing a dense rank
    row keeps it dense, so each image is an order, found by its rank row
    read as m base-m digits.
    """
    orders = enumerate_weak_orders(m)
    ranks = np.array([order.ranks for order in orders], dtype=np.int64)
    digits = np.array([m**k for k in range(m - 1, -1, -1)])
    # column g codes each rank row relabeled by the g-th permutation's inverse
    weights = digits[list(itertools.permutations(range(m)))].T
    relabeled = ranks @ weights
    # reversal takes rank r to K - r, K the worst class
    reversed_ = (ranks.max(axis=1, keepdims=True) - ranks) @ weights
    lookup = np.full(m**m, -1, dtype=np.int64)
    lookup[ranks @ digits] = np.arange(len(orders))
    table = lookup[np.concatenate([relabeled, reversed_], axis=1).T]
    table.flags.writeable = False
    return table


def _multiset_codes(picks: np.ndarray, base: int) -> np.ndarray:
    """Each row of ``picks``' last axis, sorted, read as base-``base`` digits.

    The codes keep the lexicographic order of the sorted rows.  Rows are
    sorted by odd-even transposition: n rounds of compare-exchange on
    alternate neighbouring columns sort any n columns, each exchange one
    min/max over all rows at once.  ``np.sort`` pays a fixed cost per row,
    several times the whole network on a sweep chunk's short rows.
    """
    n = picks.shape[-1]
    cols = [picks[..., i] for i in range(n)]
    for step in range(n):
        for i in range(step % 2, n - 1, 2):
            low, high = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(low, high), np.maximum(low, high)
    codes = cols[0]
    for col in cols[1:]:
        codes = codes * base + col
    return codes


def _enumerate_orbits(m: int, n: int) -> Iterator[tuple[Profile, int]]:
    """Each orbit of n-voter multisets under ``_symmetry_table(m)`` once, with its orderings.

    A multiset is a nondecreasing tuple of ``enumerate_weak_orders(m)``
    indices, and an orbit comes as its least such tuple, the first of its
    members in ``combinations_with_replacement`` order and so the first
    of its ordered profiles in ``enumerate_profiles(m, n)``.  Its weight
    is the orbit's size times the multinomial n! / (k₁! k₂! …) over the
    multiplicities kᵢ of its orders, which all its members share.  The
    weights sum to Wⁿ.  Guarded like ``enumerate_profiles``, before the
    first yield.
    """
    orders = _profile_space(m, n)
    names = default_alternative_names(m)
    orderings = math.factorial(n)
    table = _symmetry_table(m)

    def stream() -> Iterator[tuple[Profile, int]]:
        multisets = itertools.combinations_with_replacement(range(len(orders)), n)
        while chunk := list(itertools.islice(multisets, max(1, CHUNK_VOTERS // n))):
            flat = np.fromiter(itertools.chain.from_iterable(chunk), np.int64, len(chunk) * n)
            # the chunk's images under G: Wⁿ <= 10⁷, so the codes fit int64
            images = _multiset_codes(table[:, flat.reshape(-1, n)], len(orders))
            least = images[0] == images.min(axis=0)
            # orbit-stabilizer: the orbit's size is |G| over the maps fixing its member
            sizes = len(table) // (images[:, least] == images[0, least]).sum(axis=0)
            representatives = itertools.compress(chunk, least.tolist())
            for picks, size in zip(representatives, sizes.tolist()):
                repeats = math.prod(
                    math.factorial(len(list(run))) for _, run in itertools.groupby(picks)
                )
                yield Profile(names, tuple(orders[i] for i in picks)), size * orderings // repeats

    return stream()


@cache
def _rgs_completions(m: int, k: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """steps[i][b]: the draw at position i of a restricted growth string
    with exactly k blocks, b blocks already open, as (N, N's bit length,
    ways[i+1][b], b * ways[i+1][b]).

    ways[i][b] counts the strings for positions i..m-1 that end with
    exactly k blocks, given b blocks already open; N = ways[i][b].
    """
    ways = [[0] * (k + 2) for _ in range(m + 1)]
    ways[m][k] = 1
    for i in range(m - 1, -1, -1):
        for b in range(k, -1, -1):
            ways[i][b] = b * ways[i + 1][b] + ways[i + 1][b + 1]
    return tuple(
        tuple(
            (ways[i][b], ways[i][b].bit_length(), ways[i + 1][b], b * ways[i + 1][b])
            for b in range(k + 1)
        )
        for i in range(m)
    )


def _sample_weak_order(m: int, rng: random.Random, cum: list[int]) -> WeakOrder:
    """Draw one weak order uniformly at random.

    Three exact steps: class count k with probability proportional to
    the number of orders having k classes (``cum`` accumulates
    ``_weak_order_counts(m)``); a uniform restricted growth string with
    exactly k blocks (blocks numbered by first appearance); a uniform
    permutation assigning those blocks to class positions.  Each weak
    order arises from exactly one such triple.

    The draws read the generator's raw bits with the exact steps of
    ``rng.choices(range(m + 1), cum_weights=cum)``, ``rng.randrange(N)``
    and ``rng.shuffle``, so they and the generator's state after them
    are the same as those calls would give.
    """
    getrandbits = rng.getrandbits
    # k = 0 has weight 0, so the draw is the same as over k = 1..m alone
    k = bisect.bisect(cum, rng.random() * (cum[-1] + 0.0), 0, m)
    labels = []
    opened = 0
    for row in _rgs_completions(m, k):
        total, bits, tail, reuse = row[opened]
        pick = getrandbits(bits)
        while pick >= total:
            pick = getrandbits(bits)
        if pick < reuse:
            labels.append(pick // tail)
        else:
            labels.append(opened)
            opened += 1
    placement = list(range(k))
    for i in range(k - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        placement[i], placement[j] = placement[j], placement[i]
    return WeakOrder._from_dense(tuple(map(placement.__getitem__, labels)), k)


def random_profile(m: int, n: int, seed: int, trial: int) -> Profile:
    """Profile of n voters drawn uniformly over weak orders on m alternatives.

    A pure function of (seed, trial): each trial gets its own generator
    stream, so runs reproduce regardless of scheduling or trial order.
    """
    if not 1 <= m <= MAX_SAMPLED_ALTERNATIVES:
        raise RangeError(
            f"can sample weak orders for 1 <= m <= {MAX_SAMPLED_ALTERNATIVES}, got m={m}"
        )
    # seed * 2**64 + trial names a stream only while both fit in 64 bits
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise ValueError("seed and trial must be 64-bit unsigned integers")
    rng = random.Random(seed * 2**64 + trial)
    cum = list(itertools.accumulate(_weak_order_counts(m)))
    return Profile(
        default_alternative_names(m),
        tuple(_sample_weak_order(m, rng, cum) for _ in range(n)),
    )


@dataclass(frozen=True)
class HarnessConfig:
    """One sweep request.

    ``trials`` and ``seed`` matter only in random mode; the seed must
    fit in 64 unsigned bits.
    """

    m: int
    n: int
    mode: HarnessMode
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError("the condition is about triples: need m >= 3")
        if self.n < 1:
            raise ValueError("a profile needs at least one voter")
        if self.mode is HarnessMode.RANDOM:
            if self.trials < 1:
                raise ValueError("random mode needs at least one trial")
            if not 0 <= self.seed < 2**64:
                raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class HarnessReport:
    """Joint outcome counts of one sweep.

    ``violations`` holds profiles where the condition held yet the
    majority relation was intransitive (capped at 10 stored instances);
    it must come back empty if the sufficiency theorem is right.
    """

    profiles_tested: int
    condition_held_count: int
    condition_held_and_transitive_count: int
    condition_failed_count: int
    condition_failed_but_transitive_count: int
    violations: tuple[Profile, ...]


def run_harness(config: HarnessConfig) -> HarnessReport:
    """Sweep profiles, cross-checking the condition against transitivity.

    An exhaustive sweep decides each orbit of voter multisets under
    relabeling and reversal once, on its least multiset with the voters
    in nondecreasing order index, and adds the orbit's number of ordered
    profiles to every counter; a random sweep decides and counts each
    drawn profile once.  Each decided profile goes through
    :func:`sen_condition` and the majority rule; only ``condition_holds``
    is read, so the condition's triples are decided up to the first
    failing one.
    The stream is taken in chunks of ``CHUNK_VOTERS // n`` profiles, one
    at least: majority transitivity is decided for a whole chunk at once
    from its (profiles, voters, m) rank array, then the condition is
    decided and the outcomes counted profile by profile, in stream order.
    ``violations`` holds the first violating profiles in stream order;
    for an exhaustive sweep, the ordered profiles of the violating
    orbits in the order of ``enumerate_profiles``, listed from the
    orderings of each violating representative's images.
    Raises InternalDisagreement if the three readings of a ballot shape
    ever split.
    """
    if config.mode is HarnessMode.EXHAUSTIVE:
        stream = _enumerate_orbits(config.m, config.n)
    else:
        stream = (
            (random_profile(config.m, config.n, config.seed, trial), 1)
            for trial in range(config.trials)
        )
    tested = held = held_transitive = failed = failed_transitive = 0
    violations: list[Profile] = []
    size = max(1, CHUNK_VOTERS // config.n)
    while chunk := list(itertools.islice(stream, size)):
        transitive = transitive_mask(np.array([profile.ranks for profile, _ in chunk]))
        for (profile, weight), profile_transitive in zip(chunk, transitive.tolist()):
            verdict = sen_condition(profile)
            tested += weight
            if verdict.condition_holds:
                held += weight
                if profile_transitive:
                    held_transitive += weight
                elif len(violations) < VIOLATION_CAP:
                    violations.append(profile)
            else:
                failed += weight
                if profile_transitive:
                    failed_transitive += weight
    if config.mode is HarnessMode.EXHAUSTIVE and violations:
        violations = _orderings_of(violations, config.m, config.n)
    return HarnessReport(
        profiles_tested=tested,
        condition_held_count=held,
        condition_held_and_transitive_count=held_transitive,
        condition_failed_count=failed,
        condition_failed_but_transitive_count=failed_transitive,
        violations=tuple(violations),
    )


def _orderings_of(representatives: list[Profile], m: int, n: int) -> list[Profile]:
    """Up to ``VIOLATION_CAP`` ordered profiles of the representatives' orbits.

    An orbit's ordered profiles are the orderings of its representative's
    images under ``_symmetry_table(m)``.  The first of them in order-index
    order, which is ``enumerate_profiles(m, n)`` order, are built as profiles.

    The sweep's first ``VIOLATION_CAP`` violating representatives
    suffice.  Each is itself a violating profile, and no profile
    precedes its own orbit's representative; so when the cap is reached,
    each of the first ``VIOLATION_CAP`` violating profiles, and its
    representative too, comes no later than the last one kept.
    """
    orders = enumerate_weak_orders(m)
    index = {order: i for i, order in enumerate(orders)}
    picks = [[index[voter] for voter in profile.voters] for profile in representatives]
    images = _symmetry_table(m)[:, picks].reshape(-1, n)
    # a set: repeated voters, or maps with the same image, give an ordering more than once
    members = {ordering for image in images.tolist() for ordering in itertools.permutations(image)}
    names = default_alternative_names(m)
    kept = sorted(members)[:VIOLATION_CAP]
    return [Profile(names, tuple(orders[i] for i in member)) for member in kept]
