"""Mutation check: each listed mutant of ``src/`` must fail the tests named for it.

A mutant is one exact text edit to one file under ``src/``.  For each
entry the script copies the repository's ``src/``, ``tests/``, ``bench/``,
``profiles/``, ``demos/`` and ``pyproject.toml`` to a temporary directory,
applies the edit to the copy of ``src/``, and runs each of the entry's
tests there with pytest, one test a run.  Each test must kill the mutant
on its own, by a failure or an error; every (mutant, test) pair where the
test passes is reported as a survivor.  The unmutated copy must pass
every listed test first, or the check means nothing.  The repository
itself is never edited.

    python3 tools/mutants.py            # every mutant; exit 1 if one survives
    python3 tools/mutants.py --list     # names only
    python3 tools/mutants.py sign-flip threshold-strict

It is not part of tier-1: the whole list takes about two minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "profiles", "demos", "pyproject.toml")

CONDITION = "src/senvr/condition.py"
MAJORITY = "src/senvr/majority.py"
HARNESS = "src/senvr/harness.py"
CLI = "src/senvr/cli.py"
PROFILE_IO = "src/senvr/profile_io.py"
ORDERS = "src/senvr/orders.py"

T_COND = "tests/test_condition.py::"
SEEDED_PARITY = T_COND + "test_array_pass_matches_the_loop_on_seeded_profiles"
LARGE_GOLDEN = "tests/test_golden.py::test_check_large_output_matches_golden_digest"
WRITER_EDGES = "tests/test_json_writer.py::test_dump_matches_json_dumps_on_edge_cases"
WRITTEN_IN_PIECES = "tests/test_golden.py::test_large_reports_are_written_a_triple_or_voter_at_a_time"
T_CLI = "tests/test_cli.py::"
T_HARNESS = "tests/test_harness.py::"
T_ORDERS = "tests/test_orders.py::"
T_IO = "tests/test_profile_io.py::"
BUILDS_AS_CHECKED = T_ORDERS + "test_from_ranks_builds_what_the_validated_class_form_builds"
EVERY_CONSTRUCTOR = T_ORDERS + "test_every_constructor_builds_the_same_weak_order"
STORED_FORM = T_ORDERS + "test_ranks_is_the_stored_form_compared_and_left_out_of_repr"
PINNED_DRAWS = T_HARNESS + "test_random_profile_draws_are_pinned"
SAMPLER_SPEC = T_HARNESS + "test_sampler_draws_and_leaves_the_generator_as_the_specification"
EVERY_READ = T_COND + "test_every_way_of_reading_gives_the_array_reports"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "table-row-13-nonzero",
        CONDITION,
        "rows[code] = () if code == _UNCONCERNED else cells",
        "rows[code] = cells",
        (
            T_COND + "test_shape_table_holds_the_three_readings_of_every_order_over_a_triple",
            T_COND + "test_shape_table_is_the_shape_rows_with_the_unconcerned_row_zero",
            T_COND + "test_every_shape_subset_matches_the_reference_checkers",
            LARGE_GOLDEN,
        ),
    ),
    Mutant(
        "code-offset-14",
        CONDITION,
        "+ np.sign(a - c) + _UNCONCERNED",
        "+ np.sign(a - c) + _UNCONCERNED + 1",
        (SEEDED_PARITY, LARGE_GOLDEN),
    ),
    Mutant(
        "triple-offsets-reversed",
        CONDITION,
        "offsets = np.arange(0, 27 * len(block), 27)[:, None]",
        "offsets = np.arange(27 * len(block) - 27, -1, -27)[:, None]",
        (SEEDED_PARITY, LARGE_GOLDEN),
    ),
    Mutant(
        "layout-columns-shifted",
        CONDITION,
        "ranks[members[:, start : start + size]]",
        "ranks[members[:, start + 1 : start + size + 1]]",
        (SEEDED_PARITY, LARGE_GOLDEN),
    ),
    Mutant(
        "sign-flip",
        CONDITION,
        "9 * np.sign(a - b)",
        "9 * np.sign(b - a)",
        (SEEDED_PARITY, LARGE_GOLDEN),
    ),
    Mutant(
        "shared-concerned-inverted",
        CONDITION,
        "            if skipped:\n",
        "            if not skipped:\n",
        (SEEDED_PARITY,),
    ),
    Mutant(
        "threshold-strict",
        CONDITION,
        ">= ARRAY_MIN_VOTER_TRIPLES:",
        "> ARRAY_MIN_VOTER_TRIPLES:",
        (T_COND + "test_sen_condition_takes_the_array_pass_from_the_threshold_on",),
    ),
    Mutant(
        "lazy-fill-wrong-slot",
        CONDITION,
        "self._reports[index] = report",
        "self._reports[index - 1] = report",
        (
            EVERY_READ,
            T_COND + "test_verdict_repr_copy_and_pickle_read_as_the_decided_reports",
            SEEDED_PARITY,
        ),
    ),
    Mutant(
        "lazy-len-decides-every-triple",
        CONDITION,
        "return len(self._reports)",
        "return sum(1 for _ in self)",
        (T_COND + "test_condition_holds_stops_at_a_failing_first_triple",),
    ),
    Mutant(
        "parity-even",
        CONDITION,
        "return len(self.concerned) % 2 == 1",
        "return len(self.concerned) % 2 == 0",
        (T_COND + "test_sen_condition_example1_fails_on_parity",),
    ),
    Mutant(
        "majority-strict",
        MAJORITY,
        "return prefer >= np.swapaxes(prefer, -1, -2)",
        "return prefer > np.swapaxes(prefer, -1, -2)",
        ("tests/test_majority.py::test_relation_example2",),
    ),
    Mutant(
        "broken-without-negation",
        MAJORITY,
        "& ~weak[..., :, None, :]",
        "& weak[..., :, None, :]",
        ("tests/test_majority.py::test_relation_condorcet_cycles",),
    ),
    Mutant(
        "multiset-weight-1",
        HARNESS,
        "yield Profile(names, tuple(orders[i] for i in picks)), size * orderings // repeats",
        "yield Profile(names, tuple(orders[i] for i in picks)), size",
        (T_HARNESS + "test_exhaustive_sweep_counts_are_pinned",),
    ),
    Mutant(
        "orbit-size-dropped",
        HARNESS,
        "yield Profile(names, tuple(orders[i] for i in picks)), size * orderings // repeats",
        "yield Profile(names, tuple(orders[i] for i in picks)), orderings // repeats",
        (
            T_HARNESS + "test_exhaustive_sweep_counts_are_pinned",
            T_HARNESS + "test_voter_multisets_come_once_weighted_by_their_orderings",
        ),
    ),
    Mutant(
        "stabilizer-counts-every-map",
        HARNESS,
        "(images[:, least] == images[0, least])",
        "(images[:, least] >= images[0, least])",
        (T_HARNESS + "test_exhaustive_sweep_counts_are_pinned",),
    ),
    # the two below keep every count right: only the stream's shape shows them
    Mutant(
        "reversal-dropped",
        HARNESS,
        "np.concatenate([relabeled, reversed_], axis=1)",
        "np.concatenate([relabeled], axis=1)",
        (
            T_HARNESS + "test_symmetry_table_rows_are_permutations_with_the_identity_first",
            T_HARNESS + "test_symmetry_table_rows_are_the_group_closed_under_composition",
            T_HARNESS + "test_voter_multisets_come_once_weighted_by_their_orderings",
            T_HARNESS + "test_exhaustive_verify_decides_each_orbit_once",
        ),
    ),
    Mutant(
        "representative-is-max",
        HARNESS,
        "least = images[0] == images.min(axis=0)",
        "least = images[0] == images.max(axis=0)",
        (
            T_HARNESS + "test_voter_multisets_come_once_weighted_by_their_orderings",
            T_HARNESS + "test_violations_come_from_the_orbit_whose_least_member_comes_first",
        ),
    ),
    Mutant(
        "sorting-network-round-short",
        HARNESS,
        "for step in range(n):",
        "for step in range(n - 1):",
        (T_HARNESS + "test_multiset_codes_read_each_row_sorted",),
    ),
    Mutant(
        "orderings-bypassed",
        HARNESS,
        "violations = _orderings_of(violations, config.m, config.n)",
        "violations = violations",
        (T_HARNESS + "test_violations_list_the_orderings_of_a_violating_multiset",),
    ),
    Mutant(
        "orbit-expansion-dropped",
        HARNESS,
        "images = _symmetry_table(m)[:, picks].reshape(-1, n)",
        "images = _symmetry_table(m)[:1, picks].reshape(-1, n)",
        (T_HARNESS + "test_violations_list_the_orderings_of_a_violating_multiset",),
    ),
    Mutant(
        "violations-largest-first",
        HARNESS,
        "kept = sorted(members)[:VIOLATION_CAP]",
        "kept = sorted(members, reverse=True)[:VIOLATION_CAP]",
        (
            T_HARNESS + "test_violations_list_the_orderings_of_a_violating_multiset",
            T_HARNESS + "test_violations_of_a_late_orbit_are_listed_without_walking_the_profiles",
        ),
    ),
    Mutant(
        "orderings-not-deduplicated",
        HARNESS,
        "members = {ordering for image in images.tolist()"
        " for ordering in itertools.permutations(image)}",
        "members = [ordering for image in images.tolist()"
        " for ordering in itertools.permutations(image)]",
        (T_HARNESS + "test_violations_of_a_late_orbit_are_listed_without_walking_the_profiles",),
    ),
    Mutant(
        "chunk-bound-ignores-voters",
        HARNESS,
        "size = max(1, CHUNK_VOTERS // config.n)",
        "size = max(1, CHUNK_VOTERS)",
        (T_HARNESS + "test_sweep_chunks_hold_at_most_chunk_voters_ballots",),
    ),
    Mutant(
        "sampler-uniform-class-counts",
        HARNESS,
        "itertools.accumulate(_weak_order_counts(m))",
        "itertools.accumulate([0] + [1] * m)",
        (PINNED_DRAWS,),
    ),
    Mutant(
        "sampler-rejection-strict",
        HARNESS,
        "while pick >= total:",
        "while pick > total:",
        (PINNED_DRAWS, SAMPLER_SPEC),
    ),
    Mutant(
        "shuffle-bit-width-short",
        HARNESS,
        "bits = (i + 1).bit_length()",
        "bits = i.bit_length()",
        (PINNED_DRAWS, SAMPLER_SPEC),
    ),
    Mutant(
        "memo-key-drops-placement",
        HARNESS,
        "WeakOrder._from_dense(tuple(map(placement.__getitem__, labels)), k)",
        "WeakOrder._from_dense(tuple(labels), k)",
        (PINNED_DRAWS, SAMPLER_SPEC),
    ),
    Mutant(
        "order-caches-unbounded",
        ORDERS,
        "_ORDER_CACHE_SIZE = 64",
        "_ORDER_CACHE_SIZE = None",
        (
            T_CLI + "test_pm_keeps_no_map_per_ballot_after_it_returns",
            T_CLI + "test_pm_on_a_triple_keeps_no_restriction_per_ballot_after_it_returns",
        ),
    ),
    # a raw row of bools builds the right classes: only the ranks' type shows it
    Mutant(
        "dense-map-skipped",
        ORDERS,
        "cls._from_dense(tuple(dense[r] for r in ranks), len(values))",
        "cls._from_dense(tuple(ranks), len(values))",
        (BUILDS_AS_CHECKED, T_ORDERS + "test_from_ranks_holds_python_ints"),
    ),
    Mutant(
        "dense-map-admits-nan",
        ORDERS,
        "if any(value != value for value in values):",
        "if False:",
        (T_ORDERS + "test_from_ranks_rejects_nan_as_the_class_form_does",),
    ),
    # the ranks, and so equality, stay right: only a read of the classes shows it
    Mutant(
        "dense-class-index-reversed",
        ORDERS,
        "members[rank].append(alt)",
        "members[self.num_classes - 1 - rank].append(alt)",
        (BUILDS_AS_CHECKED, EVERY_CONSTRUCTOR, T_ORDERS + "test_from_classes_strict_chain"),
    ),
    Mutant(
        "equality-by-class-count",
        ORDERS,
        "return self.ranks == other.ranks",
        "return self.num_classes == other.num_classes",
        (EVERY_CONSTRUCTOR, STORED_FORM),
    ),
    Mutant(
        "hash-by-identity",
        ORDERS,
        "return hash(self.ranks)",
        "return id(self)",
        (BUILDS_AS_CHECKED, EVERY_CONSTRUCTOR, STORED_FORM),
    ),
    Mutant(
        "span-offset-dropped",
        ORDERS,
        "range(p + 1, p + s + 1)",
        "range(p, p + s)",
        (
            T_ORDERS + "test_preference_map_three_voter_goldens",
            T_ORDERS + "test_preference_map_is_the_span_of_each_class",
            "tests/test_acceptance.py::test_criterion_1_preference_map_goldens",
        ),
    ),
    # a ballot parses back the same with its tied names in any order
    Mutant(
        "ballot-groups-names-reversed",
        PROFILE_IO,
        "groups[rank].append(name)",
        "groups[rank].insert(0, name)",
        (
            T_IO + "test_ballot_groups_name_each_class_by_id",
            "tests/test_golden.py::test_pm_large_output_matches_golden_digest",
        ),
    ),
    Mutant(
        "ballot-group-index-reversed",
        PROFILE_IO,
        "row[alt] = rank",
        "row[alt] = len(groups) - 1 - rank",
        (T_IO + "test_parse_five_voters_mixed_tie_separators", T_IO + "test_round_trip"),
    ),
    Mutant(
        "ballot-duplicate-misses-first-group",
        PROFILE_IO,
        "if row[alt] >= 0:",
        "if row[alt] > 0:",
        (T_IO + "test_ballot_error_messages",),
    ),
    Mutant(
        "int-list-admits-bools",
        CLI,
        "if set(map(type, value)) == {int}:",
        "if set(map(type, value)) <= {int, bool}:",
        (WRITER_EDGES,),
    ),
    Mutant(
        "streamed-first-item-separated",
        CLI,
        '("[" if empty else ",")',
        '("[," if empty else ",")',
        (WRITER_EDGES, LARGE_GOLDEN, WRITTEN_IN_PIECES),
    ),
    Mutant(
        "streamed-empty-list-opened",
        CLI,
        'text += "[]" if empty else',
        'text += "[\\n  ]" if empty else',
        (WRITER_EDGES,),
    ),
    Mutant(
        "check-triples-listed",
        CLI,
        '"triples": (_triple_payload(profile, r) for r in verdict.per_triple),',
        '"triples": [_triple_payload(profile, r) for r in verdict.per_triple],',
        (WRITTEN_IN_PIECES,),
    ),
    Mutant(
        "voter-triple-limit-exclusive",
        CLI,
        "if count > MAX_VOTER_TRIPLES:",
        "if count >= MAX_VOTER_TRIPLES:",
        (
            T_CLI + "test_check_voter_triple_limit_is_inclusive",
            T_CLI + "test_verify_voter_triple_limit_is_inclusive",
        ),
    ),
    Mutant(
        "decode-line-0-based",
        PROFILE_IO,
        "findall(data, 0, exc.start)) + 1",
        "findall(data, 0, exc.start))",
        ("tests/test_profile_io.py::test_decode_error_names_the_line_and_the_byte",),
    ),
)


def run_tests(workdir: Path, tests: tuple[str, ...]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    result = subprocess.run(command, cwd=workdir, capture_output=True, text=True)
    if result.returncode not in (0, 1, 2):
        # 4: usage error, 5: nothing collected; a misnamed test is no kill
        raise SystemExit(f"pytest exited {result.returncode} on {tests}:\n{result.stdout}")
    return result.returncode


def fresh_src(workdir: Path) -> None:
    shutil.rmtree(workdir / "src", ignore_errors=True)
    shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    known = {m.name for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    for mutant in chosen:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.path}")

    survivors = []
    with tempfile.TemporaryDirectory(prefix="senvr-mutants-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=ignore)
            else:
                shutil.copy2(source, workdir / name)
        baseline = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if run_tests(workdir, baseline) != 0:
            print("the unmutated source fails the listed tests", file=sys.stderr)
            return 1
        for mutant in chosen:
            fresh_src(workdir)
            target = workdir / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            for test in mutant.tests:
                start = time.perf_counter()
                killed = run_tests(workdir, (test,)) != 0
                elapsed = time.perf_counter() - start
                verdict = "killed  " if killed else "SURVIVED"
                print(f"{verdict} {mutant.name} by {test} ({elapsed:.1f} s)")
                if not killed:
                    survivors.append(f"{mutant.name} by {test}")
    pairs = sum(len(mutant.tests) for mutant in chosen)
    if survivors:
        print(f"{len(survivors)} of {pairs} (mutant, test) pairs survived:")
        print("\n".join(survivors))
        return 1
    print(f"all {len(chosen)} mutants killed by each of their tests ({pairs} pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
