"""Decide value restriction on every triple, three independent ways.

For each 3-element subset of alternatives the library restricts every
ballot to those three and asks whether some alternative avoids some
role (best, medium, worst) across all concerned voters.  Three
formulations answer the question: a cardinality bound on the union of
admissible positions, a zero-cell test on the summed membership
matrices, and a direct search over (alternative, role) pairs.  They
are provably equivalent, and the library compares them on each of the
13 ballot shapes over a triple before deciding any triple.
"""

from pathlib import Path

from senvr import parse_profile, sen_condition

PROFILE = Path(__file__).resolve().parent.parent / "profiles" / "example2.profile"


def main() -> None:
    profile = parse_profile(PROFILE.read_text(encoding="utf-8"))
    verdict = sen_condition(profile)
    print(
        f"{profile.num_voters} voters over "
        f"{', '.join(profile.alternative_names)}\n"
    )
    for report in verdict.per_triple:
        members = profile.names_of(report.triple)
        print(f"triple ({', '.join(members)}):")
        print(f"  concerned voters: {[v + 1 for v in report.concerned]}")
        for name, union in zip(members, report.row_unions):
            positions = ", ".join(str(p) for p in sorted(union))
            print(f"  union of {name}'s admissible positions: {{{positions}}}")
        print(f"  summed membership matrices: {report.sum_matrix.tolist()}")
        if report.eq_witness is not None:
            row, col = report.eq_witness
            print(f"  zero cell at ({row + 1}, {col + 1})")
        if report.oracle_witness is not None:
            alt, label = report.oracle_witness
            print(
                f"  {profile.name_of(alt)} is never {label.name.lower()} "
                "for any concerned voter"
            )
        print(f"  value-restricted: {report.value_restricted}")
    print(f"\ncondition holds for the whole profile: {verdict.condition_holds}")


if __name__ == "__main__":
    main()
