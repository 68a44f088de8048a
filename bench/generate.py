"""Seeded ballot-file generator for the benchmark.

Writes profiles in senvr's text format without importing senvr, so the
inputs do not depend on the code under test.  Each ballot gives every
alternative an independent uniform level in ``0..m-1`` and ranks the
alternatives by level, so ties occur (two alternatives tie with
probability 1/m) and, for ``m = 10``, almost no two voters share a ballot.
The same ``(m, n, seed)`` always gives byte-identical text.
"""

from __future__ import annotations

import random


def random_ranks(m: int, n: int, seed: int) -> list[list[int]]:
    """``n`` rank vectors over ``m`` alternatives; rank 0 is the best class.

    Ranks are dense: the classes of each ballot are numbered 0, 1, 2, ...
    """
    rng = random.Random(seed)
    ballots = []
    for _ in range(n):
        levels = [rng.randrange(m) for _ in range(m)]
        dense = {level: rank for rank, level in enumerate(sorted(set(levels)))}
        ballots.append([dense[level] for level in levels])
    return ballots


def profile_text(names: list[str], ranks: list[list[int]]) -> str:
    """Render rank vectors in the profile format, best class first."""
    lines = ["alternatives: " + " ".join(names)]
    for ballot in ranks:
        groups = [
            " ~ ".join(names[a] for a in range(len(names)) if ballot[a] == rank)
            for rank in range(max(ballot) + 1)
        ]
        lines.append("voter: " + " > ".join(groups))
    return "\n".join(lines) + "\n"


def generate(m: int, n: int, seed: int) -> tuple[list[str], list[list[int]], str]:
    """Names, rank vectors and file text of one seeded profile."""
    names = [f"x{i + 1}" for i in range(m)]
    ranks = random_ranks(m, n, seed)
    header = f"# generated profile: m={m} n={n} seed={seed}\n"
    return names, ranks, header + profile_text(names, ranks)
