import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import profiles, wo
from senvr import (
    CycleReport,
    PairwiseTally,
    Profile,
    SocialRelation,
    WeakOrder,
    is_transitive,
    majority_relation,
    pairwise_tallies,
    enumerate_profiles,
    random_profile,
    sen_condition,
    social_ordering,
)
from senvr.harness import CHUNK_VOTERS
from senvr.majority import transitive_mask


# recounted by hand from the five ballots: rows/cols in (w, x, y, z) order
EXAMPLE2_TALLIES = [
    [0, 0, 2, 2],
    [3, 0, 3, 2],
    [3, 1, 0, 1],
    [3, 2, 4, 0],
]


def test_tallies_example2(example2):
    tally = pairwise_tallies(example2)
    assert np.array_equal(tally.prefer, EXAMPLE2_TALLIES)


def test_tallies_single_voter():
    profile = Profile(("x", "y"), (wo({0}, {1}),))
    assert np.array_equal(pairwise_tallies(profile).prefer, [[0, 1], [0, 0]])


def test_tallies_all_indifferent(all_indifferent):
    assert not pairwise_tallies(all_indifferent).prefer.any()


@pytest.mark.parametrize(
    "prefer, message",
    [
        ([[0, 1, 2]], r"^tally matrix must be square, got shape \(1, 3\)$"),
        ([0, 1], r"^tally matrix must be square, got shape \(2,\)$"),
        ([[0, -1], [2, 0]], r"^tally counts cannot be negative$"),
        ([[0, 1], [2, 1]], r"^no voter strictly prefers an alternative to itself$"),
    ],
    ids=["not-square", "not-a-matrix", "negative", "nonzero-diagonal"],
)
def test_tally_rejects_matrices_no_profile_gives(prefer, message):
    with pytest.raises(ValueError, match=message):
        PairwiseTally(np.array(prefer))


@pytest.mark.parametrize(
    "weak, message",
    [
        ([[True, True, True]], r"^relation matrix must be square, got shape \(1, 3\)$"),
        ([[True, False], [False, True]], r"^majority relation must be complete$"),
        ([[False, True], [True, True]], r"^majority relation must be reflexive$"),
    ],
    ids=["not-square", "incomplete", "irreflexive"],
)
def test_relation_rejects_matrices_no_majority_gives(weak, message):
    with pytest.raises(ValueError, match=message):
        SocialRelation(np.array(weak))


@pytest.mark.parametrize(
    "kind, same, other",
    [
        (PairwiseTally, [[0, 2], [1, 0]], [[0, 1], [2, 0]]),
        (SocialRelation, [[True, True], [False, True]], [[True, False], [True, True]]),
    ],
    ids=["tally", "relation"],
)
def test_tallies_and_relations_compare_by_their_matrices(kind, same, other):
    a = kind(np.array(same))
    assert a == kind(np.array(same))
    assert a != kind(np.array(other))
    assert a != object()


def test_relation_example2(example2):
    rel = majority_relation(pairwise_tallies(example2))
    expected = np.array(
        [
            [True, False, False, False],
            [True, True, True, True],
            [True, False, True, False],
            [True, True, True, True],
        ]
    )
    assert np.array_equal(rel.weak, expected)


def test_relation_condorcet_cycles(condorcet):
    rel = majority_relation(pairwise_tallies(condorcet))
    ok, witness = is_transitive(rel)
    assert not ok and witness == (0, 1, 2)


def complete_reflexive_relations(m):
    # each unordered pair is a > b, b > a or a tie: 3 ** (m choose 2) relations
    pairs = list(itertools.combinations(range(m), 2))
    for choice in itertools.product(range(3), repeat=len(pairs)):
        weak = np.eye(m, dtype=bool)
        for (a, b), c in zip(pairs, choice):
            weak[a, b] = c != 1
            weak[b, a] = c != 0
        yield SocialRelation(weak)


def first_violation(weak):
    m = len(weak)
    for a, b, c in itertools.product(range(m), repeat=3):
        if weak[a, b] and weak[b, c] and not weak[a, c]:
            return a, b, c
    return None


@pytest.mark.parametrize("m, count", [(3, 27), (4, 729)])
def test_is_transitive_witness_is_lexicographically_first(m, count):
    relations = list(complete_reflexive_relations(m))
    assert len(relations) == count
    for rel in relations:
        witness = first_violation(rel.weak)
        assert is_transitive(rel) == (witness is None, witness)


def test_relation_example2_transitive(example2):
    rel = majority_relation(pairwise_tallies(example2))
    assert is_transitive(rel) == (True, None)


def test_social_ordering_example2(example2):
    order = social_ordering(majority_relation(pairwise_tallies(example2)))
    assert order == wo({1, 3}, {2}, {0})  # x ~ z > y > w


def test_social_ordering_condorcet(condorcet):
    result = social_ordering(majority_relation(pairwise_tallies(condorcet)))
    assert isinstance(result, CycleReport)
    assert result.witness == (0, 1, 2)


def test_social_ordering_unanimity_single_voter():
    voter = wo({2}, {0, 1}, {3})
    profile = Profile(("a", "b", "c", "d"), (voter,))
    assert social_ordering(majority_relation(pairwise_tallies(profile))) == voter


def test_social_ordering_all_indifferent(all_indifferent):
    rel = majority_relation(pairwise_tallies(all_indifferent))
    assert rel.weak.all()
    assert social_ordering(rel) == wo({0, 1, 2})


@given(profiles(m_max=2))
def test_two_alternatives_always_transitive(profile):
    rel = majority_relation(pairwise_tallies(profile))
    assert is_transitive(rel) == (True, None)


@given(profiles())
def test_relation_is_complete_and_reflexive(profile):
    weak = majority_relation(pairwise_tallies(profile)).weak
    assert np.all(weak | weak.T)
    assert np.all(np.diag(weak))


@given(profiles())
def test_unanimous_strict_preferences_carry_over(profile):
    rel = majority_relation(pairwise_tallies(profile))
    m = profile.num_alternatives
    for a in range(m):
        for b in range(m):
            if a != b and all(v.prefers(a, b) for v in profile.voters):
                assert rel.weak[a, b] and not rel.weak[b, a]


@given(profiles(), st.permutations(range(5)))
def test_neutrality_under_relabeling(profile, big_perm):
    m = profile.num_alternatives
    perm = [p for p in big_perm if p < m]  # a permutation of 0..m-1
    names = list(profile.alternative_names)
    for old, new in enumerate(perm):
        names[new] = profile.alternative_names[old]
    mapped = Profile(
        tuple(names),
        tuple(
            wo(*({perm[a] for a in cls} for cls in voter.classes))
            for voter in profile.voters
        ),
    )
    tally = pairwise_tallies(profile).prefer
    mapped_tally = pairwise_tallies(mapped).prefer
    for a in range(m):
        for b in range(m):
            assert mapped_tally[perm[a], perm[b]] == tally[a, b]
    ordering = social_ordering(majority_relation(pairwise_tallies(profile)))
    mapped_ordering = social_ordering(majority_relation(pairwise_tallies(mapped)))
    if isinstance(ordering, WeakOrder):
        assert mapped_ordering == wo(
            *({perm[a] for a in cls} for cls in ordering.classes)
        )
    else:
        assert isinstance(mapped_ordering, CycleReport)


@given(profiles())
def test_transitive_relation_round_trips_through_ordering(profile):
    rel = majority_relation(pairwise_tallies(profile))
    ok, _ = is_transitive(rel)
    if not ok:
        return
    order = social_ordering(rel)
    m = profile.num_alternatives
    for a in range(m):
        for b in range(m):
            assert rel.weak[a, b] == order.at_least_as_good(a, b)


def batched_verdicts(profiles):
    """transitive_mask over CHUNK_VOTERS ballots at a time, as a sweep runs it."""
    verdicts = []
    size = max(1, CHUNK_VOTERS // profiles[0].num_voters)
    for start in range(0, len(profiles), size):
        chunk = profiles[start : start + size]
        ranks = np.array([[voter.ranks for voter in p.voters] for p in chunk])
        verdicts.extend(transitive_mask(ranks).tolist())
    return verdicts


def reference_transitive(profile):
    """Majority transitivity by counting voters and scanning every triple."""
    m = profile.num_alternatives
    wins = [
        [sum(v.prefers(a, b) for v in profile.voters) for b in range(m)]
        for a in range(m)
    ]
    weak = [[wins[a][b] >= wins[b][a] for b in range(m)] for a in range(m)]
    return all(
        weak[a][c] or not (weak[a][b] and weak[b][c])
        for a, b, c in itertools.product(range(m), repeat=3)
    )


# intransitive counts are held - held_transitive + failed - failed_transitive
# of the m=3 sweeps: 745 - 445 at n=3, 22849 - 18157 at n=4
@pytest.mark.parametrize("n, intransitive", [(3, 300), (4, 4692)])
def test_transitive_mask_matches_per_profile_on_every_m3_profile(n, intransitive):
    profiles = list(enumerate_profiles(3, n))
    assert len(profiles) * n > CHUNK_VOTERS
    verdicts = batched_verdicts(profiles)
    assert verdicts == [
        is_transitive(majority_relation(pairwise_tallies(p)))[0] for p in profiles
    ]
    assert verdicts.count(False) == intransitive


def linear_order_multisets(n):
    """Each multiset of n of the 6 linear orders over 3 alternatives once,
    as its rank rows, with its orderings n!/(k1! k2! ...)."""
    orders = list(itertools.permutations(range(3)))
    for picks in itertools.combinations_with_replacement(orders, n):
        repeats = math.prod(
            math.factorial(len(list(run))) for _, run in itertools.groupby(picks)
        )
        yield picks, math.factorial(n) // repeats


# Gehrlein and Fishburn (1976): the probability of a majority cycle among 3
# alternatives for n voters with linear orders, under the impartial culture
# (each ordered profile equally likely) and the impartial anonymous culture
# (each multiset equally likely), odd n
@pytest.mark.parametrize(
    "n, impartial_culture",
    [
        (3, Fraction(1, 18)),
        (5, Fraction(5, 72)),
        (7, Fraction(875, 11664)),
        (9, Fraction(65485, 839808)),
    ],
)
def test_transitive_mask_gives_the_published_cycle_probabilities(n, impartial_culture):
    multisets = list(linear_order_multisets(n))
    transitive = transitive_mask(np.array([picks for picks, _ in multisets])).tolist()
    cyclic = [weight for (_, weight), ok in zip(multisets, transitive) if not ok]
    assert sum(weight for _, weight in multisets) == 6**n
    assert Fraction(sum(cyclic), 6**n) == impartial_culture
    anonymous = 1 - Fraction(15 * (n + 3) ** 2, 16 * (n + 2) * (n + 4))
    assert Fraction(len(cyclic), len(multisets)) == anonymous


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_transitive_mask_matches_reference_on_random_profiles(m, n):
    profiles = [random_profile(m, n, seed=1000 * m + n, trial=t) for t in range(300)]
    verdicts = batched_verdicts(profiles)
    assert verdicts == [reference_transitive(p) for p in profiles]
    assert verdicts == [
        is_transitive(majority_relation(pairwise_tallies(p)))[0] for p in profiles
    ]


def test_sen_theorem_holds_triple_by_triple():
    # on every triple that is value-restricted with an odd concerned count,
    # majority restricted to that triple is transitive, whether or not the
    # condition holds on the other triples of the profile
    checked = beyond_the_condition = 0
    for trial in range(2_000):
        profile = random_profile(5, 7, seed=0, trial=trial)
        prefer = pairwise_tallies(profile).prefer
        verdict = sen_condition(profile)
        for report in verdict.per_triple:
            if report.value_restricted and report.parity_ok:
                t = list(report.triple)
                sub = majority_relation(PairwiseTally(prefer[np.ix_(t, t)]))
                assert is_transitive(sub) == (True, None), (trial, report.triple)
                checked += 1
                beyond_the_condition += not verdict.condition_holds
    assert checked > 0
    assert beyond_the_condition > 0
