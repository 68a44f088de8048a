import copy
import dataclasses
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import senvr.condition
from helpers import profiles, wo
from senvr import (
    HarnessConfig,
    HarnessMode,
    InternalDisagreement,
    MembershipMatrix,
    PreferenceMap,
    Profile,
    SenVerdict,
    Triple,
    TripleReport,
    ValueLabel,
    WeakOrder,
    check_membership_equation,
    check_union_inequality,
    check_value_restriction_oracle,
    concerned_set,
    default_alternative_names,
    membership_map,
    parse_profile,
    preference_map,
    random_profile,
    restrict,
    row_position_unions,
    run_harness,
    sen_condition,
    triples,
    value_set,
)
from senvr.cli import main


def all_weak_orders_3():
    # brute force: every label vector over {0,1,2} whose labels form an
    # initial segment is one weak order, and each order appears once
    orders = []
    for labels in itertools.product(range(3), repeat=3):
        if set(labels) != set(range(max(labels) + 1)):
            continue
        orders.append(
            wo(*({i for i in range(3) if labels[i] == k} for k in sorted(set(labels))))
        )
    return orders


T012 = Triple((0, 1, 2))


# ---------------------------------------------------------------------------
# concerned voters


def test_concerned_set_example1(example1):
    assert concerned_set(example1, T012) == {0, 1}


def test_concerned_set_example2_all_triples(example2):
    for t in itertools.combinations(range(4), 3):
        assert concerned_set(example2, Triple(t)) == {0, 1, 2, 3, 4}


def test_concerned_set_empty(all_indifferent):
    assert concerned_set(all_indifferent, T012) == frozenset()


# ---------------------------------------------------------------------------
# union-cardinality check


def test_union_check_example2_wxy(example2):
    ok, witness = check_union_inequality(example2, T012)
    assert ok and witness == 1  # x can never be ranked last
    assert row_position_unions(example2, T012) == (
        frozenset({1, 2, 3}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
    )


def test_union_check_condorcet_fails(condorcet):
    ok, witness = check_union_inequality(condorcet, T012)
    assert not ok and witness is None
    assert row_position_unions(condorcet, T012) == (frozenset({1, 2, 3}),) * 3


def test_union_check_vacuous_when_nobody_concerned(all_indifferent):
    ok, witness = check_union_inequality(all_indifferent, T012)
    assert ok and witness == 0
    assert row_position_unions(all_indifferent, T012) == (frozenset(),) * 3


# ---------------------------------------------------------------------------
# membership-sum check


def test_membership_check_example2_wxy(example2):
    ok, cell, sums = check_membership_equation(example2, T012)
    assert np.array_equal(sums, [[2, 2, 3], [4, 4, 0], [2, 2, 2]])
    assert ok and cell == (1, 2)


@pytest.mark.parametrize(
    "members, matrix, cell",
    [
        ((0, 1, 2), [[2, 2, 3], [4, 4, 0], [2, 2, 2]], (1, 2)),
        ((0, 1, 3), [[2, 2, 3], [3, 5, 0], [3, 1, 2]], (1, 2)),
        ((0, 2, 3), [[2, 0, 3], [0, 4, 1], [3, 1, 1]], (0, 1)),
        ((1, 2, 3), [[3, 2, 2], [0, 3, 3], [3, 2, 1]], (1, 0)),
    ],
)
def test_membership_check_example2_every_triple(example2, members, matrix, cell):
    ok, witness, sums = check_membership_equation(example2, Triple(members))
    assert ok
    assert np.array_equal(sums, matrix)
    assert witness == cell


def test_membership_check_condorcet_all_ones(condorcet):
    ok, cell, sums = check_membership_equation(condorcet, T012)
    assert not ok and cell is None
    assert np.array_equal(sums, np.ones((3, 3), dtype=int))


def test_membership_check_empty_concerned(all_indifferent):
    ok, cell, sums = check_membership_equation(all_indifferent, T012)
    assert ok and cell == (0, 0)
    assert np.array_equal(sums, np.zeros((3, 3), dtype=int))


# ---------------------------------------------------------------------------
# qualitative values


def test_value_set_strict_middle():
    assert value_set(wo({0}, {1}, {2}), 1) == {ValueLabel.MEDIUM}


def test_value_set_top_tie():
    assert value_set(wo({0, 1}, {2}), 0) == {ValueLabel.BEST, ValueLabel.MEDIUM}


def test_value_set_total_indifference():
    assert value_set(wo({0, 1, 2}), 2) == frozenset(ValueLabel)


def test_value_set_requires_triple_order():
    with pytest.raises(ValueError):
        value_set(wo({0}, {1}), 0)


def test_values_match_positions_for_all_13_orders():
    # best/medium/worst correspond to positions 1/2/3 of the preference map
    orders = all_weak_orders_3()
    assert len(orders) == 13
    for order in orders:
        pm = preference_map(order)
        for alt in range(3):
            expected = frozenset(ValueLabel(p) for p in pm.rows[alt])
            assert value_set(order, alt) == expected


# ---------------------------------------------------------------------------
# qualitative checker


def test_oracle_example2_wxy(example2):
    ok, witness = check_value_restriction_oracle(example2, T012)
    assert ok and witness == (1, ValueLabel.WORST)


def test_oracle_condorcet(condorcet):
    ok, witness = check_value_restriction_oracle(condorcet, T012)
    assert not ok and witness is None


def test_oracle_vacuous(all_indifferent):
    ok, witness = check_value_restriction_oracle(all_indifferent, T012)
    assert ok and witness == (0, ValueLabel.BEST)


# ---------------------------------------------------------------------------
# full condition


def test_sen_condition_example2_holds(example2):
    verdict = sen_condition(example2)
    assert verdict.condition_holds
    assert len(verdict.per_triple) == 4
    for report in verdict.per_triple:
        assert report.value_restricted
        assert report.concerned == (0, 1, 2, 3, 4)
        assert len(report.concerned) == 5
        assert report.parity_ok


def test_sen_condition_example1_fails_on_parity(example1):
    verdict = sen_condition(example1)
    assert not verdict.condition_holds
    (report,) = verdict.per_triple
    assert report.value_restricted
    assert report.concerned == (0, 1)
    assert not report.parity_ok
    assert report.ineq_witness == 0
    assert np.array_equal(report.sum_matrix, [[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    assert report.eq_witness == (0, 2)
    assert report.oracle_witness == (0, ValueLabel.WORST)


def test_sen_condition_condorcet_fails_on_restriction(condorcet):
    verdict = sen_condition(condorcet)
    assert not verdict.condition_holds
    (report,) = verdict.per_triple
    assert not report.value_restricted
    assert report.parity_ok
    assert report.ineq_witness is None
    assert report.eq_witness is None
    assert report.oracle_witness is None


def test_sen_condition_requires_three_alternatives():
    p = Profile(("x", "y"), (wo({0}, {1}),))
    with pytest.raises(ValueError):
        sen_condition(p)


def test_sen_condition_exhaustive_small_profiles():
    # every 1- and 2-voter profile over 3 alternatives
    orders = all_weak_orders_3()
    names = ("x1", "x2", "x3")
    for n in (1, 2):
        for combo in itertools.product(orders, repeat=n):
            assert_reports_match_the_reference_checkers(Profile(names, combo))


# ---------------------------------------------------------------------------
# cross-checker properties


def assert_reports_match_the_reference_checkers(profile):
    verdict = sen_condition(profile)
    assert [r.triple for r in verdict.per_triple] == list(triples(profile.num_alternatives))
    for report in verdict.per_triple:
        triple = report.triple
        assert report.concerned == tuple(sorted(concerned_set(profile, triple)))
        vr_eq, eq_witness, sums = check_membership_equation(profile, triple)
        assert report.sum_matrix.tolist() == sums.tolist()
        assert (report.value_restricted, report.eq_witness) == (vr_eq, eq_witness)
        assert (report.value_restricted, report.ineq_witness) == check_union_inequality(
            profile, triple
        )
        assert (
            report.value_restricted,
            report.oracle_witness,
        ) == check_value_restriction_oracle(profile, triple)
    assert verdict.condition_holds == all(
        check_union_inequality(profile, r.triple)[0] and len(r.concerned) % 2 == 1
        for r in verdict.per_triple
    )


@given(profiles(m_min=3, m_max=6))
def test_checkers_agree_everywhere(profile):
    assert_reports_match_the_reference_checkers(profile)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_seeded_random_profiles_match_the_reference_checkers(m):
    for trial, n in enumerate((1, 2, 5, 8, 13)):
        assert_reports_match_the_reference_checkers(random_profile(m, n, seed=m, trial=trial))


@given(profiles(m_min=3))
def test_witnesses_point_at_the_same_row(profile):
    for report in sen_condition(profile).per_triple:
        if not report.value_restricted:
            assert (
                report.ineq_witness is None
                and report.eq_witness is None
                and report.oracle_witness is None
            )
            continue
        row = report.triple.members.index(report.ineq_witness)
        assert report.eq_witness[0] == row
        assert report.oracle_witness[0] == report.ineq_witness
        # the missing position and the missing value correspond
        assert report.eq_witness[1] + 1 == report.oracle_witness[1].value


@given(profiles(m_min=3))
def test_ineq_witness_survives_recomputation(profile):
    for report in sen_condition(profile).per_triple:
        if report.ineq_witness is None:
            continue
        row = report.triple.members.index(report.ineq_witness)
        union = set()
        for k in concerned_set(profile, report.triple):
            union |= preference_map(restrict(profile.voters[k], report.triple)).rows[row]
        assert len(union) < 3
        assert union == report.row_unions[row]


@given(profiles(m_min=3))
def test_sum_matrix_row_bounds(profile):
    for report in sen_condition(profile).per_triple:
        count = len(report.concerned)
        assert report.sum_matrix.max(initial=0) <= count
        for row_sum in report.sum_matrix.sum(axis=1):
            assert count <= row_sum <= 3 * count


@given(profiles(m_min=3, m_max=4, n_max=4))
def test_adding_unconcerned_voter_changes_nothing(profile):
    m = profile.num_alternatives
    padded = Profile(
        profile.alternative_names,
        profile.voters + (wo(set(range(m))),),
    )
    before = sen_condition(profile)
    after = sen_condition(padded)
    assert before.condition_holds == after.condition_holds
    for old, new in zip(before.per_triple, after.per_triple):
        assert old.triple == new.triple
        assert old.concerned == new.concerned
        assert old.value_restricted == new.value_restricted
        assert old.ineq_witness == new.ineq_witness
        assert old.row_unions == new.row_unions
        assert old.eq_witness == new.eq_witness
        assert np.array_equal(old.sum_matrix, new.sum_matrix)
        assert old.oracle_witness == new.oracle_witness


# ---------------------------------------------------------------------------
# the per-shape pass against the per-voter reference checkers


def concerned_shapes():
    return [order for order in all_weak_orders_3() if order.num_classes > 1]


def test_every_shape_subset_matches_the_reference_checkers():
    # restricted to a triple a ballot has one of 12 concerned shapes (or is
    # unconcerned), and each checker depends only on which shapes occur, so
    # these 4096 profiles cover every verdict of every profile size
    shapes = concerned_shapes()
    assert len(shapes) == 12
    indifferent = wo({0, 1, 2})
    names = ("x", "y", "z")
    _, table = senvr.condition._shape_table()
    restricted = 0
    for mask in range(1 << len(shapes)):
        chosen = [s for i, s in enumerate(shapes) if mask >> i & 1]
        # the unconcerned voter sits in the middle, so indices shift past it
        half = len(chosen) // 2
        profile = Profile(names, (*chosen[:half], indifferent, *chosen[half:]))
        verdict = sen_condition(profile)
        (report,) = verdict.per_triple
        assert_same_reports(senvr.condition._array_reports(profile, table), verdict.per_triple)
        assert report.triple == T012
        concerned = tuple(sorted(concerned_set(profile, T012)))
        assert report.concerned == concerned
        assert report.parity_ok == (len(concerned) % 2 == 1)
        assert (report.value_restricted, report.ineq_witness) == check_union_inequality(
            profile, T012
        )
        assert report.row_unions == row_position_unions(profile, T012)
        vr_eq, eq_witness, sums = check_membership_equation(profile, T012)
        assert (report.value_restricted, report.eq_witness) == (vr_eq, eq_witness)
        assert report.sum_matrix.dtype == sums.dtype
        assert report.sum_matrix.tolist() == sums.tolist()
        assert not report.sum_matrix.flags.writeable
        assert (
            report.value_restricted,
            report.oracle_witness,
        ) == check_value_restriction_oracle(profile, T012)
        assert verdict.condition_holds == (report.value_restricted and report.parity_ok)
        restricted += report.value_restricted
    assert restricted == 649


def test_sum_matrix_counts_voters_of_each_shape():
    shapes = concerned_shapes()
    voters = tuple(shapes[i % 12] for i in range(5 * 12 + 7))
    profile = Profile(("x", "y", "z"), voters)
    (report,) = sen_condition(profile).per_triple
    _, _, sums = check_membership_equation(profile, T012)
    assert report.sum_matrix.tolist() == sums.tolist()
    assert report.concerned == tuple(range(len(voters)))


def test_shape_table_holds_the_three_readings_of_every_order_over_a_triple():
    # slot 9*sgn(a-b) + 3*sgn(b-c) + sgn(a-c) + 13 of ranks (a, b, c); 13 is
    # total indifference, and the 14 codes no order has stay empty
    senvr.condition._shape_table.cache_clear()
    rows, _ = senvr.condition._shape_table()
    assert len(rows) == 27

    def sign(d):
        return (d > 0) - (d < 0)

    codes = {}
    for order in all_weak_orders_3():
        a, b, c = order.ranks
        codes[9 * sign(a - b) + 3 * sign(b - c) + sign(a - c) + 13] = order
    assert len(codes) == 13 and codes[13] == wo({0, 1, 2})
    assert [code for code, row in enumerate(rows) if row is not None] == sorted(codes)
    for code, order in codes.items():
        pm = preference_map(order)
        by_membership = np.flatnonzero(membership_map(pm).entries).tolist()
        by_union = sorted(3 * i + p - 1 for i in range(3) for p in pm.rows[i])
        by_value = sorted(3 * i + v.value - 1 for i in range(3) for v in value_set(order, i))
        assert by_membership == by_union == by_value
        if code == 13:
            # total indifference admits every cell, but an unconcerned voter
            # adds nothing to the sums
            assert by_membership == list(range(9))
            assert rows[code] == ()
        else:
            assert list(rows[code]) == by_membership


def test_shape_table_is_the_shape_rows_with_the_unconcerned_row_zero():
    rows, table = senvr.condition._shape_table()
    assert table.shape == (27, 9) and table.dtype == np.int64
    assert not table.flags.writeable
    unused = [code for code, cells in enumerate(rows) if cells is None]
    assert len(unused) == 14
    for code, cells in enumerate(rows):
        if cells is None or code == 13:
            assert not table[code].any()
        else:
            assert np.flatnonzero(table[code]).tolist() == list(cells)
            assert set(table[code].tolist()) == {0, 1}
    # total indifference is empty in both forms
    assert rows[13] == ()


@pytest.mark.parametrize("m", range(3, 13))
def test_triple_layout_is_every_triple_with_its_members_as_columns(m):
    layout, members = senvr.condition._triple_layout(m)
    assert layout == tuple(triples(m))
    assert members.shape == (3, math.comb(m, 3))
    assert not members.flags.writeable
    assert [tuple(column) for column in members.T.tolist()] == [t.members for t in layout]


def test_sen_condition_restricts_only_the_table_orders(monkeypatch):
    # the table is built from the 13 orders over (0, 1, 2); no voter is
    # restricted, however many voters and triples the profile has
    calls = []
    real = senvr.condition.restrict

    def counting(order, triple):
        calls.append((order, triple))
        return real(order, triple)

    monkeypatch.setattr(senvr.condition, "restrict", counting)
    real.cache_clear()
    senvr.condition._shape_table.cache_clear()
    try:
        golden = Path(__file__).resolve().parent / "golden" / "large_10x301.profile"
        profile = parse_profile(golden.read_text(encoding="utf-8"))
        verdict = sen_condition(profile)
    finally:
        senvr.condition._shape_table.cache_clear()
    assert len(verdict.per_triple) == 120
    assert 0 < len(calls) <= 13
    assert {triple for _, triple in calls} == {T012}


@pytest.mark.parametrize("source", ["preference_map", "membership_map", "value_set"])
def test_corrupt_shape_row_raises_disagreement(monkeypatch, source):
    # one representation reads the strict order x > y > z wrongly: x may
    # also take position (value) 3; the other two do not agree with it
    strict = wo({0}, {1}, {2})
    real = getattr(senvr.condition, source)

    def corrupt(arg, *rest):
        result = real(arg, *rest)
        if source == "preference_map" and arg == strict:
            return PreferenceMap((result.rows[0] | {3}, *result.rows[1:]))
        if source == "membership_map" and arg == preference_map(strict):
            entries = result.entries.copy()
            entries[0, 2] = 1
            return MembershipMatrix(entries)
        if source == "value_set" and (arg, *rest) == (strict, 0):
            return result | {ValueLabel.WORST}
        return result

    monkeypatch.setattr(senvr.condition, source, corrupt)
    senvr.condition._shape_table.cache_clear()
    try:
        profile = Profile(("x", "y", "z"), (strict, wo({0, 1, 2})))
        with pytest.raises(InternalDisagreement, match=r"checkers disagree on triple \(0, 1, 2\)"):
            sen_condition(profile)
    finally:
        senvr.condition._shape_table.cache_clear()


def test_cli_exits_4_and_names_a_disagreement(monkeypatch, capsys):
    # the shape table reads the strict order x > y > z as able to take
    # "worst" at x; the first verify sweep to build the table meets it
    strict = wo({0}, {1}, {2})
    real = senvr.condition.value_set

    def corrupt(order, *rest):
        result = real(order, *rest)
        return result | {ValueLabel.WORST} if (order, *rest) == (strict, 0) else result

    monkeypatch.setattr(senvr.condition, "value_set", corrupt)
    senvr.condition._shape_table.cache_clear()
    try:
        status = main(["verify", "--exhaustive", "--m", "3", "--n", "1"])
    finally:
        senvr.condition._shape_table.cache_clear()
    out, err = capsys.readouterr()
    assert status == 4
    assert out == ""
    assert err.startswith("internal checker disagreement: checkers disagree on triple (0, 1, 2)")


def test_reports_store_only_the_triple_the_concerned_voters_and_the_sums():
    # every verdict, witness and union is a property read off the sums
    assert [f.name for f in dataclasses.fields(TripleReport)] == [
        "triple",
        "concerned",
        "sums",
    ]
    assert [f.name for f in dataclasses.fields(SenVerdict)] == ["per_triple"]


# ---------------------------------------------------------------------------
# the array pass against the per-triple loop


def assert_same_reports(got, expected):
    assert [r.triple for r in got] == [r.triple for r in expected]
    assert [r.concerned for r in got] == [r.concerned for r in expected]
    assert [r.sums for r in got] == [r.sums for r in expected]
    # the JSON writer accepts plain ints only
    assert {type(v) for r in got for v in (*r.concerned, *r.sums)} <= {int}


def both_paths(profile):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(senvr.condition, "ARRAY_MIN_VOTER_TRIPLES", math.inf)
        by_loop = sen_condition(profile).per_triple
    return senvr.condition._array_reports(profile, senvr.condition._shape_table()[1]), by_loop


def seeded_rank_profile(rng, m, n):
    # each ballot draws levels from 0..k-1 for a random k, so alternatives
    # often tie, and some voters are indifferent between everything
    ballots = []
    for _ in range(n):
        levels = rng.integers(0, rng.integers(1, m + 1), size=m)
        if rng.random() < 0.15:
            levels[:] = 0
        ballots.append(WeakOrder.from_ranks(levels.tolist()))
    return Profile(default_alternative_names(m), tuple(ballots))


def test_array_pass_matches_the_loop_on_seeded_profiles():
    rng = np.random.default_rng(2022)
    sizes = [(m, n) for m in range(3, 13) for n in (1, 2, 3, 7, 16, 40)]
    for m, n in sizes:
        profile = seeded_rank_profile(rng, m, n)
        assert_same_reports(*both_paths(profile))
    everyone_indifferent = Profile(default_alternative_names(12), (wo(set(range(12))),) * 40)
    got, expected = both_paths(everyone_indifferent)
    assert_same_reports(got, expected)
    assert {r.concerned for r in got} == {()}
    assert {r.sums for r in got} == {(0,) * 9}


@given(profiles(m_min=3, m_max=12, n_max=40))
def test_array_pass_matches_the_loop(profile):
    assert_same_reports(*both_paths(profile))


@pytest.mark.parametrize("cells", [1, 100, 1000, 10**6])
def test_array_pass_blocks_do_not_change_the_reports(monkeypatch, cells):
    # 84 triples in blocks of 1, 3, 37 (the last one short) and 84 triples
    profile = seeded_rank_profile(np.random.default_rng(cells), 9, 11)
    monkeypatch.setattr(senvr.condition, "_BLOCK_CELLS", cells)
    assert_same_reports(*both_paths(profile))


def test_array_pass_shares_one_concerned_tuple_when_nobody_is_unconcerned():
    profile = Profile(default_alternative_names(5), (wo({0}, {1}, {2}, {3}, {4}),) * 3)
    got, _ = both_paths(profile)
    assert len({id(r.concerned) for r in got}) == 1
    assert got[0].concerned == (0, 1, 2)


@pytest.mark.parametrize("n, path", [(63, "_triple_report"), (64, "_array_reports")])
def test_sen_condition_takes_the_array_pass_from_the_threshold_on(monkeypatch, n, path):
    # C(3, 3) * n voter-triples, one below and at the threshold; the loop
    # decides each triple with _triple_report
    monkeypatch.setattr(senvr.condition, "ARRAY_MIN_VOTER_TRIPLES", 64)
    taken = []
    for name in ("_triple_report", "_array_reports"):
        real = getattr(senvr.condition, name)

        def spy(*args, name=name, real=real):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(senvr.condition, name, spy)
    profile = Profile(("x", "y", "z"), (wo({0}, {1, 2}),) * n)
    (report,) = sen_condition(profile).per_triple
    assert taken == [path]
    assert report.concerned == tuple(range(n))
    assert report.sums == (n, 0, 0, 0, n, n, 0, n, n)


# ---------------------------------------------------------------------------
# below the threshold, each triple is decided when its report is read


def spy_on_decisions(monkeypatch):
    """The triples decided from now on, by either path, in decision order."""
    decided = []
    real_report, real_array = senvr.condition._triple_report, senvr.condition._array_reports

    def report(triple, *rest):
        decided.append(triple)
        return real_report(triple, *rest)

    def array(*args):
        reports = real_array(*args)
        decided.extend(r.triple for r in reports)
        return reports

    monkeypatch.setattr(senvr.condition, "_triple_report", report)
    monkeypatch.setattr(senvr.condition, "_array_reports", array)
    return decided


def test_condition_holds_stops_at_a_failing_first_triple(monkeypatch):
    # a Condorcet cycle on (a, b, c), every voter agreeing on d > e below
    cycle = [wo({0}, {1}, {2}, {3}, {4}), wo({1}, {2}, {0}, {3}, {4}), wo({2}, {0}, {1}, {3}, {4})]
    profile = Profile(default_alternative_names(5), tuple(cycle))
    decided = spy_on_decisions(monkeypatch)
    verdict = sen_condition(profile)
    assert decided == []
    assert len(verdict.per_triple) == 10
    assert decided == []
    assert not verdict.condition_holds
    assert decided == [T012]


def lazy_profiles():
    rng = np.random.default_rng(32)
    for m in range(3, 7):
        for n in (1, 2, 5, 9):
            profile = seeded_rank_profile(rng, m, n)
            assert n * math.comb(m, 3) < senvr.condition.ARRAY_MIN_VOTER_TRIPLES
            yield profile, senvr.condition._array_reports(profile, senvr.condition._shape_table()[1])


def test_every_way_of_reading_gives_the_array_reports():
    for profile, expected in lazy_profiles():
        size = len(expected)
        assert_same_reports([sen_condition(profile).per_triple[i] for i in range(size)], expected)
        reads = sen_condition(profile).per_triple
        assert_same_reports([reads[i] for i in range(-1, -size - 1, -1)], expected[::-1])
        for cut in (slice(None), slice(1, -1), slice(None, None, 2), slice(None, None, -1)):
            assert_same_reports(sen_condition(profile).per_triple[cut], expected[cut])
        first, *rest = sen_condition(profile).per_triple
        assert_same_reports([first, *rest], expected)
        for bad in (size, -size - 1):
            with pytest.raises(IndexError):
                reads[bad]

        # a partial read, then a full one: each slot keeps its first report
        reads = sen_condition(profile).per_triple
        middle = reads[size // 2]
        listed = list(reads)
        assert_same_reports(listed, expected)
        assert listed[size // 2] is middle
        assert [r is s for r, s in zip(listed, reads)] == [True] * size

        # two iterators, one a step behind, see the same report at each index
        reads = sen_condition(profile).per_triple
        ahead, behind = iter(reads), iter(reads)
        pairs = [(next(ahead), None)]
        for _ in range(size - 1):
            pairs.append((next(ahead), next(behind)))
        pairs.append((None, next(behind)))
        got_ahead = [a for a, _ in pairs[:-1]]
        got_behind = [b for _, b in pairs[1:]]
        assert_same_reports(got_ahead, expected)
        assert all(a is b for a, b in zip(got_ahead, got_behind))


def test_a_random_sweep_decides_fewer_triples_than_it_has(monkeypatch):
    trials = 100
    decided = spy_on_decisions(monkeypatch)
    config = HarnessConfig(m=5, n=7, mode=HarnessMode.RANDOM, trials=trials, seed=1)
    report = run_harness(config)
    assert report.profiles_tested == trials
    assert trials <= len(decided) < math.comb(5, 3) * trials


def test_verdict_repr_copy_and_pickle_read_as_the_decided_reports():
    for profile, expected in lazy_profiles():
        verdict = sen_condition(profile)
        verdict.condition_holds  # a partial read first
        assert repr(verdict) == repr(SenVerdict(expected))
        assert copy.copy(verdict).per_triple is verdict.per_triple
        for twin in (copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
            assert_same_reports(twin.per_triple, expected)
            assert twin.condition_holds == verdict.condition_holds
