"""Exhaustive and randomized sweeps over whole preference-profile spaces.

The harness feeds every profile (or a reproducible random stream of
profiles) through the condition checkers and the majority rule, counts
the joint outcomes, and collects any profile that satisfies the
condition yet yields an intransitive social relation.  An empty
violation list over a sweep is the empirical sufficiency evidence.
Permuting voters changes neither verdict, so an exhaustive sweep
decides each multiset of voters once and counts it by its number of
orderings.  Majority verdicts are decided per chunk of profiles, at most
``CHUNK_VOTERS`` ballots or one profile, in one numpy pass over the
chunk's rank array; the condition is decided per profile.
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

    def stream() -> Iterator[Profile]:
        for voters in itertools.product(orders, repeat=n):
            yield Profile(names, voters)

    return stream()


def _enumerate_voter_multisets(m: int, n: int) -> Iterator[tuple[Profile, int]]:
    """Each multiset of n voters on m alternatives once, with its orderings.

    A multiset comes as the profile whose voters are in nondecreasing
    ``enumerate_weak_orders(m)`` index, the first of its orderings in
    ``enumerate_profiles(m, n)``; its weight is the multinomial
    n! / (k₁! k₂! …) over the multiplicities kᵢ of its orders.  The
    weights sum to Wⁿ.  Guarded like ``enumerate_profiles``, before the
    first yield.
    """
    orders = _profile_space(m, n)
    names = default_alternative_names(m)
    orderings = math.factorial(n)

    def stream() -> Iterator[tuple[Profile, int]]:
        for picks in itertools.combinations_with_replacement(range(len(orders)), n):
            repeats = math.prod(
                math.factorial(len(list(run))) for _, run in itertools.groupby(picks)
            )
            yield Profile(names, tuple(orders[i] for i in picks)), orderings // repeats

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


# classes built directly: via WeakOrder.from_ranks, random sweeps ran ~5% slower
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
    classes = [set() for _ in range(k)]
    for alternative, block in enumerate(labels):
        classes[placement[block]].add(alternative)
    return WeakOrder(tuple(frozenset(c) for c in classes))


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

    An exhaustive sweep decides each voter multiset once, on the profile
    with its voters in nondecreasing order index, and adds the
    multiset's number of orderings to every counter; a random sweep
    decides and counts each drawn profile once.  Each decided profile
    passes through the full condition decision and the majority rule.
    The stream is taken in chunks of ``CHUNK_VOTERS // n`` profiles, one
    at least: majority transitivity is decided for a whole chunk at once
    from its (profiles, voters, m) rank array, then the condition is
    decided and the outcomes counted profile by profile, in stream order.
    ``violations`` holds the first violating profiles in stream order;
    for an exhaustive sweep, the order of ``enumerate_profiles``.
    Raises InternalDisagreement if the three readings of a ballot shape
    ever split.
    """
    if config.mode is HarnessMode.EXHAUSTIVE:
        stream = _enumerate_voter_multisets(config.m, config.n)
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
    """Up to ``VIOLATION_CAP`` orderings of the representatives' multisets.

    They come in ``enumerate_profiles(m, n)`` order.

    The sweep's first ``VIOLATION_CAP`` violating representatives
    suffice.  Each is itself a violating profile, and no profile
    precedes its own representative; so when the cap is reached, each
    of the first ``VIOLATION_CAP`` violating profiles, and its
    representative too, comes no later than the last one kept.
    """
    # sorted rank rows name a multiset, whatever order its voters come in
    wanted = {tuple(sorted(profile.ranks)) for profile in representatives}
    matches = (
        profile
        for profile in enumerate_profiles(m, n)
        if tuple(sorted(profile.ranks)) in wanted
    )
    return list(itertools.islice(matches, VIOLATION_CAP))
