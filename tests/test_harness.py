import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from senvr import (
    HarnessConfig,
    HarnessMode,
    Profile,
    RangeError,
    WeakOrder,
    count_weak_orders,
    default_alternative_names,
    enumerate_profiles,
    enumerate_weak_orders,
    is_transitive,
    majority_relation,
    pairwise_tallies,
    random_profile,
    run_harness,
    sen_condition,
)
from senvr.cli import main
from senvr.condition import _triple_layout
from senvr.harness import (
    CHUNK_VOTERS,
    VIOLATION_CAP,
    _enumerate_orbits,
    _multiset_codes,
    _sample_weak_order,
    _symmetry_table,
    _weak_order_counts,
)
from senvr.majority import transitive_mask


def oracle_rank_vectors(m):
    """Every weak order on m alternatives as its rank vector, brute force.

    A rank vector assigns each alternative its 0-based class index; a
    vector is valid iff its value set is exactly {0, ..., k-1} for some k.
    """
    vectors = set()
    for labels in itertools.product(range(m), repeat=m):
        if set(labels) == set(range(max(labels) + 1)):
            vectors.add(labels)
    return vectors


def group(m):
    """G: the m! relabelings of the alternatives, each then reversed or not.

    Maps on rank vectors, built apart from the harness's table: a
    relabeling moves alternative a to perm[a]; reversal turns class k of
    an order with K classes into class K - 1 - k.
    """
    maps = []
    for perm in itertools.permutations(range(m)):
        for reverse in (False, True):

            def g(ranks, perm=perm, reverse=reverse):
                moved = [0] * m
                for a, r in enumerate(ranks):
                    moved[perm[a]] = r
                top = max(moved)
                return tuple(top - r for r in moved) if reverse else tuple(moved)

            maps.append(g)
    return maps


def orbit_of(rows):
    """The G-orbit of a voter multiset, each member as its sorted rank rows."""
    m = len(rows[0])
    return {tuple(sorted(g(r) for r in rows)) for g in group(m)}


def burnside_orbit_count(m, n):
    """The number of G-orbits of n-voter multisets, by Burnside's lemma.

    A multiset is fixed by g iff its multiplicities are constant on each
    cycle of g on the weak orders; those are counted as the ways to make
    n from the cycle lengths.
    """
    vectors = sorted(oracle_rank_vectors(m))
    position = {r: i for i, r in enumerate(vectors)}
    maps = group(m)
    total = 0
    for g in maps:
        image = [position[g(r)] for r in vectors]
        fixed = [1] + [0] * n
        unseen = set(range(len(vectors)))
        while unseen:
            start = unseen.pop()
            length, i = 1, image[start]
            while i != start:
                unseen.remove(i)
                length, i = length + 1, image[i]
            for k in range(length, n + 1):
                fixed[k] += fixed[k - length]
        total += fixed[n]
    assert total % len(maps) == 0
    return total // len(maps)


def test_oracle_self_check():
    assert {len(oracle_rank_vectors(m)) for m in (1, 2, 3)} == {1, 3, 13}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumeration_matches_rank_vector_oracle(m):
    orders = enumerate_weak_orders(m)
    assert len(orders) == len(set(orders))
    assert {o.ranks for o in orders} == oracle_rank_vectors(m)


@pytest.mark.parametrize(
    "m, expected",
    [
        (0, 1), (1, 1), (2, 3), (3, 13), (4, 75),
        (5, 541), (6, 4683), (7, 47293), (8, 545835),
    ],
)
def test_count_weak_orders(m, expected):
    assert count_weak_orders(m) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_count_table_row_matches_enumerated_class_counts(m):
    by_classes = Counter(o.num_classes for o in enumerate_weak_orders(m))
    assert _weak_order_counts(m) == tuple(by_classes[k] for k in range(m + 1))


def test_count_weak_orders_matches_the_fubini_recurrence():
    # a(n) = sum over k >= 1 of C(n, k) a(n - k): choose the top class first
    fubini = [1]
    for n in range(1, 301):
        fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    assert [count_weak_orders(m) for m in range(301)] == fubini


def test_count_weak_orders_of_large_m_returns_a_number():
    count = count_weak_orders(1200)
    # a(n) ~ n! / (2 ln(2)^(n + 1)), with relative error far below 1e-12 here
    expected_log10 = (
        math.lgamma(1201) / math.log(10) - math.log10(2) - 1201 * math.log10(math.log(2))
    )
    assert math.log10(count) == pytest.approx(expected_log10, abs=1e-9)


def test_enumeration_order_is_deterministic():
    first = enumerate_weak_orders(4)
    assert first == enumerate_weak_orders(4)
    keys = [(o.num_classes, o.ranks) for o in first]
    assert keys == sorted(keys)


def test_enumeration_endpoints():
    orders = enumerate_weak_orders(3)
    assert orders[0] == WeakOrder((frozenset({0, 1, 2}),))
    assert orders[-1] == WeakOrder((frozenset({2}), frozenset({1}), frozenset({0})))


@pytest.mark.parametrize("m", [0, 6])
def test_enumeration_range_guard(m):
    with pytest.raises(RangeError):
        enumerate_weak_orders(m)


def test_default_alternative_names():
    assert default_alternative_names(3) == ("x1", "x2", "x3")


def test_enumerate_profiles_counts():
    assert sum(1 for _ in enumerate_profiles(3, 1)) == 13
    assert sum(1 for _ in enumerate_profiles(3, 2)) == 169


def test_enumerate_profiles_is_lexicographic():
    orders = enumerate_weak_orders(3)
    stream = enumerate_profiles(3, 2)
    assert next(stream) == Profile(default_alternative_names(3), (orders[0], orders[0]))
    assert next(stream) == Profile(default_alternative_names(3), (orders[0], orders[1]))


def test_enumerate_profiles_guard_is_eager():
    # 13^7 ~ 6.3e7 crosses the enumeration budget
    with pytest.raises(RangeError):
        enumerate_profiles(3, 7)


@pytest.mark.parametrize("n, digits", [(3860, 4300), (3861, None)])
def test_enumerate_profiles_prints_the_profile_count_up_to_4300_digits(n, digits):
    with pytest.raises(RangeError, match=rf"^13\^{n}") as excinfo:
        enumerate_profiles(3, n)
    count = str(excinfo.value).partition(" = ")[2].partition(" ")[0]
    assert len(count) == (digits or 0)


def test_enumerate_profiles_checks_the_alternative_range_before_the_budget():
    # counting the weak orders of 1200 alternatives would recurse too deep
    message = r"^can enumerate weak orders for 1 <= m <= 5, got m=1200$"
    with pytest.raises(RangeError, match=message):
        enumerate_profiles(1200, 1)


def test_random_profile_is_deterministic():
    a = random_profile(4, 3, seed=11, trial=5)
    b = random_profile(4, 3, seed=11, trial=5)
    assert a == b
    assert a.alternative_names == default_alternative_names(4)


def test_random_profile_varies_across_trials():
    draws = {random_profile(4, 3, seed=11, trial=t) for t in range(6)}
    assert len(draws) > 1


def test_random_profile_range_guard():
    with pytest.raises(RangeError):
        random_profile(9, 1, seed=0, trial=0)


def test_random_profile_rejects_no_voters():
    with pytest.raises(ValueError, match=r"^a profile needs at least one voter$"):
        random_profile(3, 0, seed=0, trial=0)


@pytest.mark.parametrize("seed, trial", [(0, 2**64), (1, -1), (-1, 0), (2**64, 0)])
def test_random_profile_rejects_a_seed_or_trial_outside_64_bits(seed, trial):
    # seed * 2**64 + trial names the stream, so (0, 2**64) would draw
    # (1, 0)'s profile, (1, -1) would draw (0, 2**64 - 1)'s, and (-1, 0)
    # would draw (0, -2**64)'s
    message = r"^seed and trial must be 64-bit unsigned integers$"
    with pytest.raises(ValueError, match=message):
        random_profile(5, 7, seed, trial)
    random_profile(5, 7, 2**64 - 1, 2**64 - 1)


def test_random_profile_uniformity():
    # pooled frequencies of the 13 orders stay within 3 standard deviations
    profile = random_profile(3, 10_000, seed=0, trial=0)
    counts = Counter(profile.voters)
    assert set(counts) <= set(enumerate_weak_orders(3))
    p = 1 / 13
    expected = 10_000 * p
    tolerance = 3 * (10_000 * p * (1 - p)) ** 0.5
    for order in enumerate_weak_orders(3):
        assert abs(counts[order] - expected) <= tolerance


@pytest.mark.parametrize(
    "m, n, seed, digest",
    [
        (3, 5, 0, "55bce8e61df1c80a28a4492e7d8d7ed2694577b840ff0ad090add3f8755406f0"),
        (3, 5, 7, "18faedfb91fcdfeb12350b47361c9f5975c21bd363ea77e744e54319c01daf6a"),
        (3, 5, 2**64 - 1, "f794df13161fdb4ff3128c3ca705ec6c28a97e96c6c256361cd9ce84a0138c41"),
        (5, 7, 0, "19ce63a139d06755c22ade83ea2ba13fd88f8c6f2588eaa651c17fd185f34a9a"),
        (5, 7, 7, "8c895738d8eca701b35b53edf85e028747ebea7ed1e0d73500af76a4d381e7f0"),
        (5, 7, 2**64 - 1, "3858e4da736bb18c6b9c5edec9ba47d72981ad035cacb8dfb6d6322309209262"),
        (8, 4, 0, "b643cd57b957eb081224dbdd9a140b623b4a0f7d91ea88dd6012d0947e113e3c"),
        (8, 4, 7, "553601d5d3c7d075e16a353178f83007ab1fe368cd2e6bed1b289e98aa9bbc4e"),
        (8, 4, 2**64 - 1, "6b7475b2ab947ac0ace23c7380812b1bc79d5cdb6fd91e8a014dcd68d618d044"),
    ],
)
def test_random_profile_draws_are_pinned(m, n, seed, digest):
    # the sweep goldens pin only counts; this pins the profiles themselves,
    # as the rank rows of trials 0..19
    rows = [
        [list(voter.ranks) for voter in random_profile(m, n, seed, trial).voters]
        for trial in range(20)
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def spec_sample_weak_order(m, rng):
    """The sampler as calls to ``choices``, ``randrange`` and ``shuffle``:
    the specification that ``_sample_weak_order``'s raw-bit steps follow."""
    k = rng.choices(range(m + 1), weights=_weak_order_counts(m))[0]
    # ways[i][b]: restricted growth strings for positions i..m-1 that end
    # with exactly k blocks, given b blocks already open
    ways = [[0] * (k + 2) for _ in range(m + 1)]
    ways[m][k] = 1
    for i in range(m - 1, -1, -1):
        for b in range(k, -1, -1):
            ways[i][b] = b * ways[i + 1][b] + ways[i + 1][b + 1]
    labels = []
    opened = 0
    for i in range(m):
        reuse = opened * ways[i + 1][opened]
        pick = rng.randrange(ways[i][opened])
        if pick < reuse:
            labels.append(pick // ways[i + 1][opened])
        else:
            labels.append(opened)
            opened += 1
    placement = list(range(k))
    rng.shuffle(placement)
    classes = [set() for _ in range(k)]
    for alternative, block in enumerate(labels):
        classes[placement[block]].add(alternative)
    return WeakOrder(tuple(frozenset(c) for c in classes))


@pytest.mark.parametrize("m", range(1, 9))
def test_sampler_draws_and_leaves_the_generator_as_the_specification(m):
    cum = list(itertools.accumulate(_weak_order_counts(m)))
    for seed in range(250):
        spec_rng, rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _sample_weak_order(m, rng, cum) == spec_sample_weak_order(m, spec_rng)
            assert rng.getstate() == spec_rng.getstate()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("m", range(2, 9))
def test_random_profile_draws_as_the_specification(m, seed):
    for trial in (0, 1, 2**64 - 1):
        rng = random.Random(seed * 2**64 + trial)
        expected = tuple(spec_sample_weak_order(m, rng) for _ in range(7))
        assert random_profile(m, 7, seed, trial).voters == expected


@pytest.mark.parametrize("memo", [_triple_layout], ids=lambda f: f.__name__)
def test_sweep_memos_are_bounded_senvr_caches(memo):
    # a benchmark clears every cache whose function senvr defines before
    # each timed call, so each call pays for these cold
    assert memo.__module__.startswith("senvr")
    assert hasattr(memo, "cache_clear")
    assert memo.cache_info().maxsize is not None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=2, n=1, mode=HarnessMode.EXHAUSTIVE),
        dict(m=3, n=0, mode=HarnessMode.EXHAUSTIVE),
        dict(m=3, n=1, mode=HarnessMode.RANDOM, trials=0),
        dict(m=3, n=1, mode=HarnessMode.RANDOM, trials=1, seed=-1),
        dict(m=3, n=1, mode=HarnessMode.RANDOM, trials=1, seed=2**64),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        HarnessConfig(**kwargs)


def test_harness_exhaustive_single_voter():
    # 13 single-voter profiles: only total indifference leaves the lone
    # voter unconcerned, failing the odd-count requirement
    report = run_harness(HarnessConfig(m=3, n=1, mode=HarnessMode.EXHAUSTIVE))
    assert report.profiles_tested == 13
    assert report.condition_held_count == 12
    assert report.condition_held_and_transitive_count == 12
    assert report.condition_failed_count == 1
    assert report.condition_failed_but_transitive_count == 1
    assert report.violations == ()


def test_harness_exhaustive_m3_n3():
    report = run_harness(HarnessConfig(m=3, n=3, mode=HarnessMode.EXHAUSTIVE))
    assert report.profiles_tested == 13**3
    assert report.violations == ()
    assert report.condition_held_count == report.condition_held_and_transitive_count
    assert report.condition_failed_but_transitive_count > 0
    assert (
        report.condition_held_count + report.condition_failed_count
        == report.profiles_tested
    )


@pytest.mark.parametrize("ballots", [CHUNK_VOTERS, 21, 2])
def test_violations_keep_stream_order_across_chunks(monkeypatch, ballots):
    # a condition that always holds turns every intransitive profile into
    # a violation; the first ten lie at stream positions 23..75, so chunks
    # of 21 ballots (7 profiles of 3) spread them over several chunks, and
    # a budget below the voter count still takes one profile a chunk
    monkeypatch.setattr("senvr.harness.CHUNK_VOTERS", ballots)
    held = SimpleNamespace(condition_holds=True)
    monkeypatch.setattr("senvr.harness.sen_condition", lambda profile: held)
    report = run_harness(HarnessConfig(m=3, n=3, mode=HarnessMode.EXHAUSTIVE))
    intransitive = [
        profile
        for profile in enumerate_profiles(3, 3)
        if not is_transitive(majority_relation(pairwise_tallies(profile)))[0]
    ]
    assert report.violations == tuple(intransitive[:VIOLATION_CAP])
    assert report.condition_held_count == 2197
    assert report.condition_held_and_transitive_count == 1897


@pytest.mark.parametrize("n, trials", [(1, 2100), (700, 7), (3000, 2)])
def test_sweep_chunks_hold_at_most_chunk_voters_ballots(monkeypatch, n, trials):
    # a chunk holds CHUNK_VOTERS // n profiles, or one when n is larger,
    # whatever n is; each run here needs more than one chunk
    sizes = []

    def spy(ranks):
        sizes.append(ranks.shape[:2])
        return transitive_mask(ranks)

    monkeypatch.setattr("senvr.harness.transitive_mask", spy)
    report = run_harness(HarnessConfig(m=3, n=n, mode=HarnessMode.RANDOM, trials=trials))
    assert report.profiles_tested == trials
    assert len(sizes) > 1
    assert {voters for _, voters in sizes} == {n}
    assert sum(profiles for profiles, _ in sizes) == trials
    assert all(profiles * n <= max(CHUNK_VOTERS, n) for profiles, _ in sizes)


def test_violations_list_the_orderings_of_a_violating_multiset(monkeypatch):
    # the condition stubbed to hold on one intransitive orbit only, that of
    # the voters of order index 0, 4 and 7: the violations are the first
    # ordered profiles of its multisets, in enumeration order, though the
    # sweep decided the orbit once
    orders = enumerate_weak_orders(3)
    orbit = orbit_of(tuple(orders[i].ranks for i in (0, 4, 7)))
    monkeypatch.setattr(
        "senvr.harness.sen_condition",
        lambda profile: SimpleNamespace(condition_holds=tuple(sorted(profile.ranks)) in orbit),
    )
    report = run_harness(HarnessConfig(m=3, n=3, mode=HarnessMode.EXHAUSTIVE))
    members = [p for p in enumerate_profiles(3, 3) if tuple(sorted(p.ranks)) in orbit]
    assert report.violations == tuple(members[:VIOLATION_CAP])
    # the listed profiles span more than the representative's multiset
    assert len({tuple(sorted(p.ranks)) for p in report.violations}) > 1
    assert report.condition_held_count == len(members) == 72
    assert report.condition_held_and_transitive_count == 0


def test_violations_past_the_first_unsorted_profile_keep_stream_order(monkeypatch):
    # with the condition stubbed to hold, the 13th intransitive profile,
    # order indices (0, 7, 4), is the first whose voters are not sorted
    monkeypatch.setattr("senvr.harness.VIOLATION_CAP", 25)
    held = SimpleNamespace(condition_holds=True)
    monkeypatch.setattr("senvr.harness.sen_condition", lambda profile: held)
    report = run_harness(HarnessConfig(m=3, n=3, mode=HarnessMode.EXHAUSTIVE))
    intransitive = [
        profile
        for profile in enumerate_profiles(3, 3)
        if not is_transitive(majority_relation(pairwise_tallies(profile)))[0]
    ]
    assert report.violations == tuple(intransitive[:25])
    orders = enumerate_weak_orders(3)
    assert [orders.index(v) for v in report.violations[12].voters] == [0, 7, 4]


def test_violations_come_from_the_orbit_whose_least_member_comes_first(monkeypatch):
    # two intransitive orbits whose least members come in the opposite
    # order to their greatest: under a cap of one, the violation is the
    # first ordered profile of either, (1, 2, 11), which needs each orbit
    # decided on its least member
    orders = enumerate_weak_orders(3)
    position = {order.ranks: i for i, order in enumerate(orders)}

    def members(picks):
        rows = tuple(orders[i].ranks for i in picks)
        return sorted(tuple(sorted(position[r] for r in image)) for image in orbit_of(rows))

    first, second = members((1, 2, 11)), members((1, 3, 12))
    assert first[0] < second[0] and first[-1] > second[-1]
    stubbed = set(first) | set(second)
    monkeypatch.setattr("senvr.harness.VIOLATION_CAP", 1)
    monkeypatch.setattr(
        "senvr.harness.sen_condition",
        lambda profile: SimpleNamespace(
            condition_holds=tuple(sorted(position[r] for r in profile.ranks)) in stubbed
        ),
    )
    report = run_harness(HarnessConfig(m=3, n=3, mode=HarnessMode.EXHAUSTIVE))
    names = default_alternative_names(3)
    assert report.violations == (Profile(names, tuple(orders[i] for i in (1, 2, 11))),)
    assert report.condition_held_and_transitive_count == 0


@pytest.mark.parametrize("m, picks", [(3, (7, 8, 9, 12)), (4, (51, 72))])
def test_violations_of_a_late_orbit_are_listed_without_walking_the_profiles(
    monkeypatch, m, picks
):
    # the condition stubbed to hold on the last intransitive orbit only, and
    # enumerate_profiles refused: the violations are still the orbit's first
    # ordered profiles in enumeration order, each listed once, though maps
    # with the same image give some of them twice
    orders = enumerate_weak_orders(m)
    n = len(picks)
    orbit = orbit_of(tuple(orders[i].ranks for i in picks))
    monkeypatch.setattr(
        "senvr.harness.sen_condition",
        lambda profile: SimpleNamespace(condition_holds=tuple(sorted(profile.ranks)) in orbit),
    )

    def refused(m, n):
        raise AssertionError("the sweep walked the ordered profiles")

    monkeypatch.setattr("senvr.harness.enumerate_profiles", refused)
    report = run_harness(HarnessConfig(m=m, n=n, mode=HarnessMode.EXHAUSTIVE))
    members = [
        picked
        for picked in itertools.product(range(len(orders)), repeat=n)
        if tuple(sorted(orders[i].ranks for i in picked)) in orbit
    ]
    names = default_alternative_names(m)
    assert report.violations == tuple(
        Profile(names, tuple(orders[i] for i in picked)) for picked in members[:VIOLATION_CAP]
    )
    assert report.condition_held_count == len(members)
    assert report.condition_held_and_transitive_count == 0


def counts(report):
    return (
        report.profiles_tested,
        report.condition_held_count,
        report.condition_held_and_transitive_count,
        report.condition_failed_count,
        report.condition_failed_but_transitive_count,
    )


def brute_force_counts(m, n):
    """The sweep counters, deciding every ordered profile on its own."""
    tested = held = held_transitive = failed = failed_transitive = 0
    for profile in enumerate_profiles(m, n):
        transitive = is_transitive(majority_relation(pairwise_tallies(profile)))[0]
        tested += 1
        if sen_condition(profile).condition_holds:
            held += 1
            held_transitive += transitive
        else:
            failed += 1
            failed_transitive += transitive
    return tested, held, held_transitive, failed, failed_transitive


@pytest.mark.parametrize("m, n", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_exhaustive_sweep_equals_brute_force(m, n):
    report = run_harness(HarnessConfig(m=m, n=n, mode=HarnessMode.EXHAUSTIVE))
    assert counts(report) == brute_force_counts(m, n)
    assert report.violations == ()


@pytest.mark.parametrize(
    "m, n, expected",
    [
        (3, 5, (371293, 109092, 109092, 262201, 210241)),
        # from brute force, not from the multiset sweep: brute_force_counts(4, 3)
        # decides each of the 75^3 ordered profiles on its own (about 30 s)
        (4, 3, (421875, 185646, 185646, 236229, 95565)),
    ],
)
def test_exhaustive_sweep_counts_are_pinned(m, n, expected):
    report = run_harness(HarnessConfig(m=m, n=n, mode=HarnessMode.EXHAUSTIVE))
    assert counts(report) == expected
    assert report.violations == ()


@pytest.mark.parametrize("m, n", [(3, 1), (3, 3), (3, 5), (4, 2), (5, 1)])
def test_voter_multisets_come_once_weighted_by_their_orderings(m, n):
    # the orbit stream: every multiset lies in exactly one yielded orbit,
    # which comes as its least member, and the weights count the orderings
    orbits = list(_enumerate_orbits(m, n))
    orders = enumerate_weak_orders(m)
    w = len(orders)
    position = {order.ranks: i for i, order in enumerate(orders)}
    assert len(orbits) == burnside_orbit_count(m, n)
    assert sum(weight for _, weight in orbits) == w**n
    covered = set()
    for profile, _ in orbits:
        members = {tuple(sorted(position[r] for r in rows)) for rows in orbit_of(profile.ranks)}
        assert tuple(position[r] for r in profile.ranks) == min(members)
        assert not members & covered
        covered |= members
    assert len(covered) == math.comb(w + n - 1, n)


def test_voter_multiset_weights_count_the_ordered_profiles():
    multisets = Counter(tuple(sorted(p.ranks)) for p in enumerate_profiles(3, 4))
    orderings = Counter()
    for rows, count in multisets.items():
        orderings[min(orbit_of(rows))] += count
    weights = {min(orbit_of(p.ranks)): w for p, w in _enumerate_orbits(3, 4)}
    assert weights == orderings


@pytest.mark.parametrize("m, n", [(3, 7), (4, 4), (6, 1), (1200, 1), (3, 4000), (3, 0)])
def test_voter_multisets_are_refused_like_enumerate_profiles(m, n):
    # neither stream is iterated: both refuse when called
    with pytest.raises(ValueError) as expected:
        enumerate_profiles(m, n)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        _enumerate_orbits(m, n)


def test_verdicts_do_not_depend_on_voter_order():
    # the premise of deciding a multiset once, on every m=3, n=3 profile
    orders = enumerate_weak_orders(3)
    names = default_alternative_names(3)
    representatives = {}
    for picks in itertools.combinations_with_replacement(range(len(orders)), 3):
        profile = Profile(names, tuple(orders[i] for i in picks))
        representatives[tuple(sorted(profile.ranks))] = profile
    held = {key: sen_condition(p).condition_holds for key, p in representatives.items()}
    profiles = list(enumerate_profiles(3, 3))
    keys = [tuple(sorted(p.ranks)) for p in profiles]
    assert [sen_condition(p).condition_holds for p in profiles] == [held[k] for k in keys]
    ordered = transitive_mask(np.array([p.ranks for p in profiles]))
    representative = transitive_mask(np.array([representatives[k].ranks for k in keys]))
    assert ordered.tolist() == representative.tolist()


# G's generators as maps on rank vectors: a transposition, the m-cycle, reversal
GENERATORS = (
    lambda ranks: (ranks[1], ranks[0], *ranks[2:]),
    lambda ranks: (*ranks[1:], ranks[0]),
    lambda ranks: tuple(max(ranks) - r for r in ranks),
)


@pytest.mark.parametrize("m, n", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_verdicts_do_not_change_under_relabeling_or_reversal(m, n):
    # the premise of deciding an orbit once, on every ordered profile
    orders = enumerate_weak_orders(m)
    names = default_alternative_names(m)
    profiles = list(enumerate_profiles(m, n))
    held = [sen_condition(p).condition_holds for p in profiles]
    transitive = transitive_mask(np.array([p.ranks for p in profiles])).tolist()
    assert 0 < sum(held) < len(held)
    for g in GENERATORS:
        image = {order: WeakOrder.from_ranks(g(order.ranks)) for order in orders}
        assert set(image.values()) == set(orders)
        assert any(image[order] != order for order in orders)
        moved = [Profile(names, tuple(image[v] for v in p.voters)) for p in profiles]
        assert [sen_condition(p).condition_holds for p in moved] == held
        assert transitive_mask(np.array([p.ranks for p in moved])).tolist() == transitive


@pytest.mark.parametrize("m", [3, 4, 5])
def test_symmetry_table_rows_are_permutations_with_the_identity_first(m):
    table = _symmetry_table(m)
    w = count_weak_orders(m)
    assert table.shape == (2 * math.factorial(m), w)
    assert table.dtype == np.int64
    assert not table.flags.writeable
    assert table[0].tolist() == list(range(w))
    assert (np.sort(table, axis=1) == np.arange(w)).all()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_symmetry_table_rows_are_the_group_closed_under_composition(m):
    # the rows are the 2·m! maps of relabeling and reversal, built here
    # apart from the table, and each composition of two rows is a row
    table = _symmetry_table(m)
    orders = enumerate_weak_orders(m)
    position = {order.ranks: i for i, order in enumerate(orders)}
    rows = {tuple(row) for row in table.tolist()}
    expected = {tuple(position[g(order.ranks)] for order in orders) for g in group(m)}
    assert len(rows) == len(expected) == 2 * math.factorial(m)
    assert rows == expected
    stored = {row.tobytes() for row in table}
    for row in table:
        assert {composed.tobytes() for composed in row[table]} <= stored


@pytest.mark.parametrize("n", range(1, 9))
def test_multiset_codes_read_each_row_sorted(n):
    # random rows and a descending one, the network's worst case, on two
    # leading axes as the sweep passes them
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.integers(0, 13, (500, n)), np.arange(12, 12 - n, -1)[None, :]])
    picks = np.stack([rows, rows[::-1]])
    digits = 13 ** np.arange(n - 1, -1, -1)
    assert (_multiset_codes(picks, 13) == np.sort(picks, axis=-1) @ digits).all()


@pytest.mark.parametrize(
    "m, n, orbits",
    [(3, 1, 3), (3, 2, 14), (3, 3, 52), (3, 4, 185), (3, 5, 577),
     (4, 1, 6), (4, 2, 97), (4, 3, 1753)],
)
def test_burnside_counts_the_orbits(m, n, orbits):
    assert burnside_orbit_count(m, n) == orbits


def test_held_multisets_at_even_n_equal_those_at_the_odd_n_below():
    # at m=3 a held profile with n even has an odd, so nonzero, number of
    # totally indifferent voters: removing one is a bijection onto the held
    # multisets of n - 1 voters.  Ordered counts weigh the two sides apart.
    orders = enumerate_weak_orders(3)
    names = default_alternative_names(3)
    held = [
        sum(
            sen_condition(Profile(names, tuple(orders[i] for i in picks))).condition_holds
            for picks in itertools.combinations_with_replacement(range(len(orders)), n)
        )
        for n in range(1, 7)
    ]
    assert held == [12, 12, 324, 324, 2598, 2598]


@pytest.fixture
def decided(monkeypatch):
    """Every profile that run_harness passes to sen_condition, in call order."""
    profiles = []

    def counted(profile):
        profiles.append(profile)
        return sen_condition(profile)

    monkeypatch.setattr("senvr.harness.sen_condition", counted)
    return profiles


def test_exhaustive_verify_decides_each_orbit_once(decided, capsys):
    assert main(["verify", "--exhaustive", "--m", "3", "--n", "3"]) == 0
    assert "profiles tested: 2197\n" in capsys.readouterr().out
    assert len(decided) == burnside_orbit_count(3, 3) == 52
    assert len(set(decided)) == len(decided)


def test_random_sweep_decides_each_trial_once_in_stream_order(decided):
    run_harness(HarnessConfig(m=5, n=7, mode=HarnessMode.RANDOM, trials=30, seed=42))
    assert decided == [random_profile(5, 7, 42, trial) for trial in range(30)]


def test_harness_random_is_reproducible():
    config = HarnessConfig(m=5, n=7, mode=HarnessMode.RANDOM, trials=100, seed=42)
    first = run_harness(config)
    second = run_harness(config)
    assert first == second
    assert first.profiles_tested == 100
    assert first.violations == ()


def test_harness_counter_identities_random():
    report = run_harness(
        HarnessConfig(m=4, n=4, mode=HarnessMode.RANDOM, trials=200, seed=7)
    )
    assert report.condition_held_count == report.condition_held_and_transitive_count
    assert (
        report.condition_held_count + report.condition_failed_count
        == report.profiles_tested
    )
