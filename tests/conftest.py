import os
from pathlib import Path

import pytest

from helpers import wo
from senvr import Profile

SRC = Path(__file__).resolve().parent.parent / "src"

# pyproject's `pythonpath` reaches only this process; the CLI and demo
# runs that tests spawn import senvr through the environment they inherit
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def example1():
    # three voters over (x, y, z): a strict chain, a top tie, total indifference
    return Profile(
        ("x", "y", "z"),
        (
            wo({0}, {1}, {2}),
            wo({0, 1}, {2}),
            wo({0, 1, 2}),
        ),
    )


@pytest.fixture
def example2():
    # five voters over (w, x, y, z); value-restricted on every triple
    return Profile(
        ("w", "x", "y", "z"),
        (
            wo({0, 1}, {2}, {3}),  # w ~ x > y > z
            wo({0, 1}, {3}, {2}),  # x ~ w > z > y
            wo({1, 3}, {2}, {0}),  # z ~ x > y > w
            wo({3}, {1, 2}, {0}),  # z > y ~ x > w
            wo({3}, {2}, {1}, {0}),  # z > y > x > w
        ),
    )


@pytest.fixture
def condorcet():
    # the classic 3-voter cycle: x > y > z, y > z > x, z > x > y
    return Profile(
        ("x", "y", "z"),
        (
            wo({0}, {1}, {2}),
            wo({1}, {2}, {0}),
            wo({2}, {0}, {1}),
        ),
    )


@pytest.fixture
def all_indifferent():
    return Profile(("x", "y", "z"), (wo({0, 1, 2}), wo({0, 1, 2})))
