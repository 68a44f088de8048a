"""Independent correctness reference for the benchmark.

Everything here is computed directly from rank vectors (rank 0 is a
voter's best class) with numpy, without importing senvr: pairwise
tallies, the majority relation and its transitivity, and per triple the
concerned voters, the admissible-position sums, the (alternative, value)
pairs taken, value restriction and concerned-count parity.  The
benchmark compares the CLI's output against it outside the timed region.

Arrays are shaped ``(profiles, voters, alternatives)``.
"""

from __future__ import annotations

import itertools

import numpy as np

VALUE_NAMES = ("best", "medium", "worst")

# (profiles tested, condition held, held and transitive, condition failed,
# failed but transitive); no exhaustive sweep has a violation.
# m=3, n=3 is the README's example; m=3, n=4 was measured with senvr 0.1.0.
KNOWN_SWEEPS = {
    (3, 3): (2197, 1452, 1452, 745, 445),
    (3, 4): (28561, 5712, 5712, 22849, 18157),
}

# the other two members of a triple, by local index
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])


class InconsistentReference(AssertionError):
    """The reference's own two value-restriction tests disagree (a bug here)."""


def analyze(ranks: np.ndarray) -> dict[str, np.ndarray]:
    """Per-profile majority outcome and per-triple value-restriction data.

    Keys: ``tallies`` (P, m, m), ``weak`` (P, m, m), ``bad`` (P, m, m, m)
    marking each (a, b, c) with a R b, b R c and not a R c,
    ``transitive`` (P,), ``triples`` (T, 3), ``concerned`` (P, n, T),
    ``sums`` (P, T, 3, 3) of admissible positions (row = member, column =
    position), ``taken`` (P, T, 3, 3) of values (column = best, medium,
    worst), ``restricted`` and ``parity`` (P, T), ``condition`` (P,).
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    m = ranks.shape[2]
    tallies = (ranks[:, :, :, None] < ranks[:, :, None, :]).sum(axis=1)
    weak = tallies >= tallies.transpose(0, 2, 1)
    bad = weak[:, :, :, None] & weak[:, None, :, :] & ~weak[:, :, None, :]
    transitive = ~bad.any(axis=(1, 2, 3))

    triples = np.array(list(itertools.combinations(range(m), 3)), dtype=np.int64)
    own = ranks[:, :, triples]  # (P, n, T, 3)
    others = own[..., _OTHERS]  # (P, n, T, 3, 2)
    concerned = ~((own[..., 0] == own[..., 1]) & (own[..., 1] == own[..., 2]))

    # a member with `better` strictly preferred members and `ties` members
    # tied with it may take positions better+1 .. better+1+ties
    better = (others < own[..., None]).sum(axis=-1)
    ties = (others == own[..., None]).sum(axis=-1)
    position = np.arange(1, 4)
    admissible = (better[..., None] < position) & (
        position <= (better + 1 + ties)[..., None]
    )
    sums = (admissible & concerned[..., None, None]).sum(axis=1)

    low, high = others.min(axis=-1), others.max(axis=-1)
    values = np.stack([own <= low, (low <= own) & (own <= high), own >= high], axis=-1)
    taken = (values & concerned[..., None, None]).any(axis=1)

    restricted = (sums == 0).any(axis=(-2, -1))
    if not np.array_equal(restricted, (~taken).any(axis=(-2, -1))):
        raise InconsistentReference("position sums and value sets disagree")
    parity = concerned.sum(axis=1) % 2 == 1
    condition = (restricted & parity).all(axis=-1)
    return {
        "tallies": tallies,
        "weak": weak,
        "bad": bad,
        "transitive": transitive,
        "triples": triples,
        "concerned": concerned,
        "sums": sums,
        "taken": taken,
        "restricted": restricted,
        "parity": parity,
        "condition": condition,
    }


def sweep_counts(ranks: np.ndarray) -> tuple[int, int, int, int, int, int]:
    """Sweep counters in ``KNOWN_SWEEPS`` order, then the violation count."""
    result = analyze(ranks)
    held, transitive = result["condition"], result["transitive"]
    return (
        len(held),
        int(held.sum()),
        int((held & transitive).sum()),
        int((~held).sum()),
        int((~held & transitive).sum()),
        int((held & ~transitive).sum()),
    )


def weak_order_ranks(m: int) -> np.ndarray:
    """Every weak order on m alternatives as a dense rank vector."""
    vectors = [
        v
        for v in itertools.product(range(m), repeat=m)
        if set(v) == set(range(max(v) + 1))
    ]
    return np.array(vectors, dtype=np.int64)


def exhaustive_ranks(m: int, n: int) -> np.ndarray:
    """Every n-voter profile on m alternatives, shape (W**n, n, m)."""
    orders = weak_order_ranks(m)
    picks = np.array(list(itertools.product(range(len(orders)), repeat=n)))
    return orders[picks]


def verify_payload(
    mode: str, m: int, n: int, trials: int | None, seed: int | None, counts
) -> dict:
    """Expected ``verify --json`` report, without the ``violations`` list."""
    tested, held, held_transitive, failed, failed_transitive = counts[:5]
    return {
        "mode": mode,
        "m": m,
        "n": n,
        "trials": trials,
        "seed": seed,
        "profiles_tested": tested,
        "condition_held_count": held,
        "condition_held_and_transitive_count": held_transitive,
        "condition_failed_count": failed,
        "condition_failed_but_transitive_count": failed_transitive,
    }


def _first_zero(cells: np.ndarray) -> tuple[int, ...] | None:
    zeros = np.argwhere(cells == 0)
    return tuple(int(i) for i in zeros[0]) if len(zeros) else None


def check_payload(names: list[str], ranks) -> dict:
    """Expected ``check --json`` report for one profile."""
    result = analyze(np.asarray(ranks)[None])
    triples = []
    for t, members in enumerate(result["triples"].tolist()):
        member_names = [names[a] for a in members]
        sums = result["sums"][0, t]
        concerned = np.flatnonzero(result["concerned"][0, :, t])
        zero_row = _first_zero(sums.min(axis=1))
        zero_cell = _first_zero(sums)
        missing = _first_zero(result["taken"][0, t])
        triples.append(
            {
                "members": member_names,
                "concerned": [int(k) + 1 for k in concerned],
                "parity_ok": bool(result["parity"][0, t]),
                "value_restricted": bool(result["restricted"][0, t]),
                "ineq_witness": None if zero_row is None else member_names[zero_row[0]],
                "union_sets": {
                    name: [q + 1 for q in range(3) if sums[i, q] > 0]
                    for i, name in enumerate(member_names)
                },
                "sum_matrix": sums.tolist(),
                "eq_witness": None if zero_cell is None else [c + 1 for c in zero_cell],
                "oracle_witness": (
                    None
                    if missing is None
                    else {
                        "alternative": member_names[missing[0]],
                        "value": VALUE_NAMES[missing[1]],
                    }
                ),
            }
        )
    weak = result["weak"][0]
    if result["transitive"][0]:
        # under a transitive relation, the alternatives strictly above a
        # given one determine its indifference class
        above = (weak.T & ~weak).sum(axis=1)
        ordering = [
            [names[a] for a in np.flatnonzero(above == level)]
            for level in sorted(set(above.tolist()))
        ]
        social = {"transitive": True, "ordering": ordering, "cycle": None}
    else:
        a, b, c = np.argwhere(result["bad"][0])[0]
        social = {"transitive": False, "ordering": None, "cycle": [names[a], names[b], names[c]]}
    return {
        "alternatives": list(names),
        "triples": triples,
        "condition_holds": bool(result["condition"][0]),
        "tallies": result["tallies"][0].tolist(),
        "social": social,
    }
