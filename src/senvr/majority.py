"""Majority decision: pairwise tallies, the social relation, transitivity.

The rule is Sen's method of majority decision: society weakly prefers
``a`` to ``b`` iff at least as many voters strictly prefer ``a`` to
``b`` as prefer ``b`` to ``a``.  Tally ties therefore yield social
indifference (both weak directions hold), never incomparability, so
the social relation is always complete and reflexive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from senvr.orders import Profile, WeakOrder

__all__ = [
    "CycleReport",
    "PairwiseTally",
    "SocialRelation",
    "is_transitive",
    "majority_relation",
    "pairwise_tallies",
    "social_ordering",
    "transitive_mask",
]


@dataclass(frozen=True, eq=False)
class PairwiseTally:
    """Strict-preference counts: ``prefer[a, b]`` voters rank a above b.

    The diagonal is zero and ``prefer[a, b] + prefer[b, a]`` never
    exceeds the number of voters (with equality exactly when no voter
    ties the pair).
    """

    prefer: np.ndarray

    def __post_init__(self) -> None:
        prefer = np.asarray(self.prefer, dtype=int)
        if prefer.ndim != 2 or prefer.shape[0] != prefer.shape[1]:
            raise ValueError(f"tally matrix must be square, got shape {prefer.shape}")
        if (prefer < 0).any():
            raise ValueError("tally counts cannot be negative")
        if np.diagonal(prefer).any():
            raise ValueError("no voter strictly prefers an alternative to itself")
        prefer.setflags(write=False)
        object.__setattr__(self, "prefer", prefer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairwiseTally):
            return NotImplemented
        return np.array_equal(self.prefer, other.prefer)


@dataclass(frozen=True, eq=False)
class SocialRelation:
    """Complete reflexive social relation: ``weak[a, b]`` iff a R b."""

    weak: np.ndarray

    def __post_init__(self) -> None:
        weak = np.asarray(self.weak, dtype=bool)
        if weak.ndim != 2 or weak.shape[0] != weak.shape[1]:
            raise ValueError(f"relation matrix must be square, got shape {weak.shape}")
        if not (weak | weak.T).all():
            raise ValueError("majority relation must be complete")
        if not np.diagonal(weak).all():
            raise ValueError("majority relation must be reflexive")
        weak.setflags(write=False)
        object.__setattr__(self, "weak", weak)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialRelation):
            return NotImplemented
        return np.array_equal(self.weak, other.weak)


@dataclass(frozen=True)
class CycleReport:
    """Witness that the social relation is not transitive.

    ``witness`` is the first triple (a, b, c) in lexicographic order
    with a R b and b R c but not a R c.
    """

    witness: tuple[int, int, int]


def _tallies(ranks: np.ndarray) -> np.ndarray:
    """``prefer[..., a, b]`` from ranks shaped (..., voters, m)."""
    return (ranks[..., :, None] < ranks[..., None, :]).sum(axis=-3)


def _weak(prefer: np.ndarray) -> np.ndarray:
    return prefer >= np.swapaxes(prefer, -1, -2)


def _broken(weak: np.ndarray) -> np.ndarray:
    """Cells (..., a, b, c) with a R b and b R c, yet not a R c."""
    return weak[..., :, :, None] & weak[..., None, :, :] & ~weak[..., :, None, :]


def transitive_mask(ranks: np.ndarray) -> np.ndarray:
    """Majority transitivity of every profile in a (profiles, voters, m) rank array."""
    return ~_broken(_weak(_tallies(ranks))).any(axis=(-3, -2, -1))


def pairwise_tallies(profile: Profile) -> PairwiseTally:
    """Count, for every ordered pair, the voters ranking the first strictly higher."""
    return PairwiseTally(_tallies(np.array(profile.ranks)))


def majority_relation(tally: PairwiseTally) -> SocialRelation:
    """Society weakly prefers a to b iff prefer[a, b] >= prefer[b, a]."""
    return SocialRelation(_weak(tally.prefer))


def is_transitive(rel: SocialRelation) -> tuple[bool, tuple[int, int, int] | None]:
    """Check a R b and b R c imply a R c; report the first failure.

    Returns ``(True, None)`` or ``(False, (a, b, c))`` with the
    lexicographically first violating triple.  Completeness makes
    transitivity of the weak relation imply transitivity of strict
    preference and of indifference, so this single check suffices.
    """
    broken = np.argwhere(_broken(rel.weak))
    if not len(broken):
        return True, None
    return False, tuple(broken[0].tolist())


def social_ordering(rel: SocialRelation) -> WeakOrder | CycleReport:
    """Extract the social weak ordering, or the cycle that prevents one.

    For a transitive relation the indifference classes are the groups
    of mutually weakly preferred alternatives, ordered by strict social
    preference; within such a relation an alternative's number of
    strict wins is constant on each class and strictly decreasing down
    the classes, so grouping by win count realizes that order.
    """
    ok, witness = is_transitive(rel)
    if not ok:
        assert witness is not None
        return CycleReport(witness)
    strict = rel.weak & ~rel.weak.T
    wins = strict.sum(axis=1)
    return WeakOrder.from_ranks((-wins).tolist())
