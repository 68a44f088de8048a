"""Builders shared by the test modules: literal weak orders and hypothesis strategies."""

from hypothesis import strategies as st

from senvr import Profile, WeakOrder, default_alternative_names


def wo(*classes):
    """The weak order with these classes, best first: ``wo({0, 1}, {2})``."""
    return WeakOrder(tuple(frozenset(c) for c in classes))


@st.composite
def weak_orders(draw, m):
    # any label vector compresses to a unique weak order
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return WeakOrder.from_ranks(labels)


@st.composite
def profiles(draw, m_min=2, m_max=5, n_max=6):
    m = draw(st.integers(m_min, m_max))
    n = draw(st.integers(1, n_max))
    voters = tuple(draw(weak_orders(m)) for _ in range(n))
    return Profile(default_alternative_names(m), voters)
