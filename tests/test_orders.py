import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import weak_orders, wo
from senvr import (
    PartitionError,
    Profile,
    Triple,
    UnknownAlternative,
    WeakOrder,
    default_alternative_names,
    enumerate_weak_orders,
    is_unconcerned,
    membership_map,
    parse_profile,
    preference_map,
    random_profile,
    restrict,
    triples,
)


# ---------------------------------------------------------------------------
# construction


def test_from_classes_strict_chain():
    order = wo({0}, {1}, {2})
    assert order.classes == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert order.ranks == (0, 1, 2)


def test_ranks_is_the_stored_form_compared_and_left_out_of_repr():
    order = wo({1}, {0, 2})
    assert order.ranks == (1, 0, 1)
    assert order == WeakOrder.from_ranks([5, 2, 5])
    assert hash(order) == hash(WeakOrder.from_ranks([5, 2, 5]))
    assert order != WeakOrder.from_ranks([0, 1, 0])
    assert repr(order) == "WeakOrder(classes=(frozenset({1}), frozenset({0, 2})))"
    with pytest.raises(TypeError):
        WeakOrder(order.classes, ranks=order.ranks)


def test_weak_order_is_a_dataclass_over_its_rank_row_alone():
    assert [f.name for f in dataclasses.fields(WeakOrder)] == ["ranks"]
    assert WeakOrder.__slots__ == ("ranks",)
    assert not hasattr(wo({1}, {0, 2}), "__dict__")


def test_weak_order_is_immutable():
    order = wo({1}, {0, 2})
    for name in ("ranks", "num_classes", "classes", "other"):
        with pytest.raises(AttributeError):
            setattr(order, name, None)
        with pytest.raises(AttributeError):
            delattr(order, name)
    assert order.ranks == (1, 0, 1) and order.num_classes == 2


def test_weak_order_pickles_and_copies():
    order = wo({1}, {0, 2})
    for twin in (pickle.loads(pickle.dumps(order)), copy.copy(order), copy.deepcopy(order)):
        assert twin == order and twin.classes == order.classes


def _partition(ranks):
    """The ordered partition a rank vector names, built without WeakOrder."""
    return tuple(
        frozenset(alt for alt, r in enumerate(ranks) if r == value)
        for value in sorted(set(ranks))
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_every_constructor_builds_the_same_weak_order(m):
    # one alternative makes no profile, so neither the parser nor the sampler reaches it
    enumerated = enumerate_weak_orders(m)
    names = default_alternative_names(m)
    text = f"alternatives: {' '.join(names)}\n" + "".join(
        "voter: "
        + " > ".join(" ~ ".join(names[alt] for alt in sorted(c)) for c in _partition(o.ranks))
        + "\n"
        for o in enumerated
    )
    parsed = parse_profile(text).voters
    # these draws reach every weak order on m <= 5 alternatives
    sampled = {o.ranks: o for o in random_profile(m, 6000, 2, 0).voters}
    assert len(sampled) == len(enumerated) == len(set(enumerated))
    # neighbours in the enumeration mostly share their class count, so
    # equality must read more than the count to tell them apart
    assert all(a != b for a, b in itertools.pairwise(enumerated))
    for order, from_text in zip(enumerated, parsed):
        classes = _partition(order.ranks)
        built = (
            WeakOrder(classes),
            WeakOrder.from_ranks(order.ranks),
            from_text,
            sampled[order.ranks],
        )
        for other in built:
            assert other == order
            assert other.classes == classes
            assert other.ranks == order.ranks
            assert other.num_classes == len(classes)
            assert hash(other) == hash(order)
            assert repr(other) == f"WeakOrder(classes={classes!r})"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_preference_map_is_the_span_of_each_class(m):
    for order in enumerate_weak_orders(m):
        rows = [None] * m
        p = 0
        for cls in order.classes:
            for alt in cls:
                rows[alt] = frozenset(range(p + 1, p + len(cls) + 1))
            p += len(cls)
        assert preference_map(order).rows == tuple(rows)


def test_from_classes_total_indifference():
    order = wo({0, 1, 2})
    assert order.num_classes == 1
    assert order.ranks == (0, 0, 0)


@pytest.mark.parametrize(
    "classes",
    [
        pytest.param([{0}, {0, 1}], id="overlap"),
        pytest.param([{1}], id="missing-id"),  # 0 is missing
        pytest.param([{0}, {2}], id="out-of-range"),
        pytest.param([{0}, set(), {1}], id="empty-class"),
        pytest.param([], id="no-classes"),
    ],
)
def test_weak_order_rejects_non_partitions(classes):
    with pytest.raises(PartitionError):
        wo(*classes)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_from_ranks_reranks_densely(m):
    # values may skip (range(m + 1) over m slots) and still rank densely
    for values in itertools.product(range(m + 1), repeat=m):
        dense = tuple(sorted(set(values)).index(v) for v in values)
        assert WeakOrder.from_ranks(values).ranks == dense


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_from_ranks_round_trips_every_weak_order(m):
    for order in enumerate_weak_orders(m):
        assert WeakOrder.from_ranks(order.ranks) == order


def test_from_ranks_reads_a_one_shot_iterable_once():
    expected = WeakOrder.from_ranks([1, 0, 1])
    for ranks in ((r for r in [1, 0, 1]), map(int, "101")):
        order = WeakOrder.from_ranks(ranks)
        assert order == expected
        assert order.classes == expected.classes


def test_from_ranks_rejects_no_alternatives():
    with pytest.raises(PartitionError, match="^a weak order needs at least one class$"):
        WeakOrder.from_ranks([])


def test_from_ranks_builds_what_the_validated_class_form_builds():
    # every rank vector over m <= 5, dense or not
    for m in range(1, 6):
        for ranks in itertools.product(range(m), repeat=m):
            classes = _partition(ranks)
            expected = WeakOrder(classes)
            order = WeakOrder.from_ranks(ranks)
            assert order == expected
            assert hash(order) == hash(expected)
            assert order.ranks == expected.ranks
            assert order.classes == expected.classes == classes


@pytest.mark.parametrize(
    "ranks",
    [np.array([7, 3, 7]), [True, False, True], np.array([True, False, True])],
    ids=["numpy-int", "bool", "numpy-bool"],
)
def test_from_ranks_holds_python_ints(ranks):
    order = WeakOrder.from_ranks(ranks)
    assert order.ranks == (1, 0, 1)
    assert [type(r) for r in order.ranks] == [int, int, int]


@pytest.mark.parametrize(
    "ranks",
    [[float("nan"), 1.0], [1.0, float("nan")], np.array([np.nan, np.nan])],
    ids=["nan-first", "nan-last", "numpy-nans"],
)
def test_from_ranks_rejects_nan_as_the_class_form_does(ranks):
    # NaN equals nothing, itself included, so the class it heads is empty
    with pytest.raises(PartitionError, match="^indifference classes must be nonempty$"):
        WeakOrder.from_ranks(ranks)


def test_direct_construction_is_validated_too():
    with pytest.raises(PartitionError):
        wo({0}, {0, 1})
    with pytest.raises(PartitionError):
        wo({0}, {2})


def test_prefers_and_ties():
    order = wo({0, 1}, {2})
    assert order.prefers(0, 2)
    assert not order.prefers(2, 0)
    assert not order.prefers(0, 1)
    assert order.at_least_as_good(0, 1) and order.at_least_as_good(1, 0)


# ---------------------------------------------------------------------------
# predominance and indifference sets (the paper's xi and eta), kept here as
# oracles for the positional reading of preference maps


def predominance_set(order, alt):
    """Alternatives strictly preferred to ``alt`` in ``order``."""
    return frozenset().union(*order.classes[: order.rank_of(alt)])


def indifference_set(order, alt):
    """The entire indifference class of ``alt``, itself included."""
    return order.classes[order.rank_of(alt)]


def test_predominance_bottom_of_chain():
    assert predominance_set(wo({0}, {1}, {2}), 2) == {0, 1}


def test_predominance_top_tie_is_empty():
    assert predominance_set(wo({0, 1}, {2}), 0) == frozenset()


def test_predominance_below_a_tie():
    assert predominance_set(wo({0, 1}, {2}), 2) == {0, 1}


def test_indifference_includes_self():
    assert indifference_set(wo({0}, {1}, {2}), 0) == {0}
    assert indifference_set(wo({0, 1}, {2}), 1) == {0, 1}
    assert indifference_set(wo({0, 1, 2}), 2) == {0, 1, 2}


# ---------------------------------------------------------------------------
# preference maps and membership matrices


@pytest.mark.parametrize(
    "order, rows",
    [
        (wo({0}, {1}, {2}), ({1}, {2}, {3})),
        (wo({0, 1}, {2}), ({1, 2}, {1, 2}, {3})),
        (wo({0, 1, 2}), ({1, 2, 3}, {1, 2, 3}, {1, 2, 3})),
    ],
)
def test_preference_map_three_voter_goldens(order, rows):
    assert preference_map(order).rows == tuple(frozenset(r) for r in rows)


@pytest.mark.parametrize(
    "order, matrix",
    [
        (wo({0}, {1}, {2}), np.eye(3, dtype=int)),
        (wo({0, 1}, {2}), np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])),
        (wo({0, 1, 2}), np.ones((3, 3), dtype=int)),
    ],
)
def test_membership_map_three_voter_goldens(order, matrix):
    mpm = membership_map(preference_map(order))
    assert np.array_equal(mpm.entries, matrix)


def test_membership_matrix_equality_and_readonly():
    a = membership_map(preference_map(wo({0, 1}, {2})))
    b = membership_map(preference_map(wo({0, 1}, {2})))
    c = membership_map(preference_map(wo({0}, {1}, {2})))
    assert a == b
    assert a != c
    assert a != object()
    with pytest.raises(ValueError):
        a.entries[0, 0] = 7


def test_membership_row_positions_round_trip():
    pm = preference_map(wo({2}, {0, 1}))
    mpm = membership_map(pm)
    assert tuple(frozenset(np.flatnonzero(row) + 1) for row in mpm.entries) == pm.rows


# ---------------------------------------------------------------------------
# triples and restriction


def test_triple_must_be_ascending():
    Triple((0, 1, 3))
    with pytest.raises(ValueError):
        Triple((1, 0, 3))
    with pytest.raises(ValueError):
        Triple((1, 1, 2))


def test_triple_of_sorts():
    assert Triple.of(3, 0, 1).members == (0, 1, 3)


def test_triples_enumeration_is_canonical():
    got = [t.members for t in triples(4)]
    assert got == list(itertools.combinations(range(4), 3))


def test_restrict_drops_and_compacts():
    # z > y ~ x > w over (w, x, y) collapses to x ~ y > w
    order = wo({3}, {1, 2}, {0})
    restricted = restrict(order, Triple((0, 1, 2)))
    assert restricted == wo({1, 2}, {0})
    assert preference_map(restricted).rows == (
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({1, 2}),
    )


def test_restrict_keeps_top_tie():
    # x ~ w > z > y over (w, x, y) collapses to w ~ x > y
    order = wo({0, 1}, {3}, {2})
    restricted = restrict(order, Triple((0, 1, 2)))
    assert restricted == wo({0, 1}, {2})
    assert preference_map(restricted).rows == (
        frozenset({1, 2}),
        frozenset({1, 2}),
        frozenset({3}),
    )


def test_restrict_inside_one_class_is_total_indifference():
    order = wo({0, 2, 3}, {1})
    assert restrict(order, Triple((0, 2, 3))) == wo({0, 1, 2})


def test_is_unconcerned():
    assert is_unconcerned(wo({0, 1, 2}), Triple((0, 1, 2)))
    assert not is_unconcerned(wo({0}, {1}, {2}), Triple((0, 1, 2)))
    # w ~ x > y ~ z restricted to (w, x, y) still has two classes
    assert not is_unconcerned(wo({0, 1}, {2, 3}), Triple((0, 1, 2)))


# ---------------------------------------------------------------------------
# profile validation


def test_profile_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Profile(("x", "x"), (wo({0}, {1}),))


def test_profile_rejects_voter_universe_mismatch():
    with pytest.raises(ValueError, match=r"^voter 2 ranks 2 alternatives, expected 3$"):
        Profile(("x", "y", "z"), (wo({0}, {1}, {2}), wo({0}, {1})))


def test_profile_ranks_is_the_rank_matrix_in_voter_order():
    p = Profile(("x", "y", "z"), (wo({2}, {0, 1}), wo({0}, {1}, {2})))
    assert p.ranks == ((1, 1, 0), (0, 1, 2))
    assert "ranks" not in repr(p)


def test_profile_rejects_empty_voter_list():
    with pytest.raises(ValueError):
        Profile(("x", "y"), ())


def test_profile_rejects_a_single_alternative():
    with pytest.raises(ValueError, match=r"^a profile needs at least two alternatives$"):
        Profile(("x",), (wo({0}),))


def test_profile_accepts_two_alternatives():
    p = Profile(("x", "y"), (wo({0, 1}),))
    assert p.num_alternatives == 2 and p.num_voters == 1


def test_profile_name_lookup():
    p = Profile(("x", "y"), (wo({0}, {1}),))
    assert p.index_of("y") == 1
    assert p.name_of(0) == "x"
    with pytest.raises(UnknownAlternative):
        p.index_of("q")


# ---------------------------------------------------------------------------
# invariants


@given(weak_orders(m=4))
def test_pm_rows_tile_positions(order):
    pm = preference_map(order)
    distinct = sorted(set(pm.rows), key=min)
    covered = []
    for row in distinct:
        covered.extend(sorted(row))
    assert covered == list(range(1, 5))


@given(weak_orders(m=5))
def test_pm_positional_consistency(order):
    pm = preference_map(order)
    for alt in range(5):
        xi = predominance_set(order, alt)
        eta = indifference_set(order, alt)
        assert min(pm.rows[alt]) == len(xi) + 1
        assert max(pm.rows[alt]) == len(xi) + len(eta)
        assert len(pm.rows[alt]) == len(eta)


@given(weak_orders(m=4))
def test_pm_rows_equal_iff_tied(order):
    pm = preference_map(order)
    for a in range(4):
        for b in range(4):
            tied = order.rank_of(a) == order.rank_of(b)
            assert (pm.rows[a] == pm.rows[b]) == tied


@given(weak_orders(m=5))
def test_mpm_round_trip(order):
    pm = preference_map(order)
    mpm = membership_map(pm)
    assert tuple(frozenset(np.flatnonzero(row) + 1) for row in mpm.entries) == pm.rows


@given(weak_orders(m=5), st.permutations(range(5)))
def test_restriction_matches_directly_induced_order(order, perm):
    triple = Triple.of(*perm[:3])
    # build the induced three-element order from scratch, then compare maps
    kept_ranks = sorted({order.rank_of(a) for a in triple})
    induced = wo(
        *(
            {i for i, a in enumerate(triple) if order.rank_of(a) == r}
            for r in kept_ranks
        )
    )
    assert preference_map(restrict(order, triple)) == preference_map(induced)
