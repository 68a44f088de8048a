"""Sen's theorem at m=3 for every number of voters, by checked integer certificates.

Majority transitivity and the condition are both decided triple by
triple, so the theorem for every m follows from m=3.  There, a profile is
a count of voters for each of the 12 concerned ballot shapes (the
indifferent ballot adds to no tally and to no concerned count).  Majority
is intransitive iff, for some ordering (p, q, r) of the alternatives, the
net tallies satisfy T(p,q) >= 0, T(q,r) >= 0 and T(r,p) >= 1.  The
condition confines the counts to one of the 9 value-restricted shape sets
("x never takes value v") and makes their total odd.  So the theorem says
that none of the 9 x 6 = 54 integer programs below has a solution.

Each program is ruled out by one of two certificates, checked here in
integer arithmetic over every allowed shape:

* a combination lam_pq*t(p,q) + lam_qr*t(q,r) + lam_rp*t(r,p) with
  integer multipliers in 0..3, lam_rp >= 1, that is <= 0 on every shape:
  summed over the voters it is <= 0, yet the tallies make it >= lam_rp;
* t(p,q) + t(q,r) <= 0 on every shape, where every shape with a zero
  coefficient has t(p,q) = +-1: the tallies force T(p,q) + T(q,r) = 0, so
  no voter has a shape of negative coefficient, T(p,q) = 0, and the
  concerned count, which T(p,q) equals modulo 2, is even.

The shape sets come from the reference ``value_set``, not from the
decision table.  As the control, every program of the second kind is
feasible once parity is dropped, by an explicit integer witness that is
checked against senvr's own verdicts.
"""

import itertools

from senvr import Profile, default_alternative_names, enumerate_weak_orders, sen_condition
from senvr.condition import ValueLabel, value_set
from senvr.majority import is_transitive, majority_relation, pairwise_tallies

SHAPES = tuple(order for order in enumerate_weak_orders(3) if order.num_classes > 1)
ORDERINGS = tuple(itertools.permutations(range(3)))


def net(shape, a, b):
    return int(shape.prefers(a, b)) - int(shape.prefers(b, a))


def restricted_sets():
    """(x, v) -> the concerned shapes in which alternative x never takes value v."""
    return {
        (x, v): tuple(s for s in SHAPES if v not in value_set(s, x))
        for x in range(3)
        for v in ValueLabel
    }


def programs():
    """Each (x, v), its shapes' net tallies on (p,q), (q,r), (r,p), and the
    shapes, for each ordering (p, q, r)."""
    for (x, v), shapes in restricted_sets().items():
        for p, q, r in ORDERINGS:
            nets = tuple((net(s, p, q), net(s, q, r), net(s, r, p)) for s in shapes)
            yield (x, v), (p, q, r), nets, shapes


def combination_certificate(nets):
    """Multipliers (lam_pq, lam_qr, lam_rp) in 0..3, lam_rp >= 1, whose
    combination of the three net tallies is <= 0 on every shape, or None."""
    for lam in itertools.product(range(4), range(4), range(1, 4)):
        if all(sum(k * t for k, t in zip(lam, shape)) <= 0 for shape in nets):
            return lam
    return None


def parity_certificate(nets):
    """t(p,q) + t(q,r) <= 0 on every shape, and t(p,q) = +-1 on every shape
    where that sum is 0."""
    return all(
        t_pq + t_qr < 0 or (t_pq + t_qr == 0 and abs(t_pq) == 1) for t_pq, t_qr, _ in nets
    )


def intransitive_on(counts, nets):
    """T(p,q) >= 0, T(q,r) >= 0 and T(r,p) >= 1 for these shape counts."""
    t_pq, t_qr, t_rp = (sum(c * shape[i] for c, shape in zip(counts, nets)) for i in range(3))
    return t_pq >= 0 and t_qr >= 0 and t_rp >= 1


def small_solutions(nets):
    """Nonzero shape counts in 0..2 under which majority is intransitive."""
    return (
        c
        for c in itertools.product(range(3), repeat=len(nets))
        if any(c) and intransitive_on(c, nets)
    )


def test_the_shape_sets_come_from_the_reference_value_sets():
    assert len(SHAPES) == 12
    sets = restricted_sets()
    assert len(sets) == 9
    for (x, v), shapes in sets.items():
        assert len(shapes) == (6 if v is ValueLabel.MEDIUM else 7), (x, v)


def test_every_program_has_a_checked_certificate():
    by_combination = by_parity = 0
    for restriction, ordering, nets, _ in programs():
        lam = combination_certificate(nets)
        if lam is not None:
            assert lam[2] >= 1
            # it rules out any nonnegative counts; a search over 0..2 agrees
            assert next(small_solutions(nets), None) is None, (restriction, ordering)
            by_combination += 1
        else:
            assert parity_certificate(nets), (restriction, ordering)
            by_parity += 1
    assert (by_combination, by_parity) == (36, 18)


def test_parity_certified_programs_are_feasible_without_parity():
    # the control: the second certificate needs parity, so every program
    # it alone rules out has an even integer solution, here with counts in
    # 0..2, which senvr decides as value-restricted, failing on parity,
    # with an intransitive majority
    names = default_alternative_names(3)
    witnesses = 0
    for restriction, ordering, nets, shapes in programs():
        if combination_certificate(nets) is not None:
            continue
        counts = next(small_solutions(nets), None)
        assert counts is not None, (restriction, ordering)
        assert sum(counts) % 2 == 0
        profile = Profile(names, tuple(s for c, s in zip(counts, shapes) for _ in range(c)))
        (report,) = sen_condition(profile).per_triple
        assert report.value_restricted and not report.parity_ok
        assert not is_transitive(majority_relation(pairwise_tallies(profile)))[0]
        witnesses += 1
    assert witnesses == 18

