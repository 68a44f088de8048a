"""Value-restriction and majority-transitivity analysis for ranked ballots.

The library represents weak-order preferences as ordered partitions,
derives their position-set encodings (preference maps and 0/1 membership
matrices), decides the value-restriction condition on every alternative
triple three independent ways, and computes the pairwise majority relation
together with its transitivity verdict.
"""

from senvr.condition import (
    InternalDisagreement,
    SenVerdict,
    TripleReport,
    ValueLabel,
    check_membership_equation,
    check_union_inequality,
    check_value_restriction_oracle,
    concerned_set,
    row_position_unions,
    sen_condition,
    value_set,
)
from senvr.harness import (
    HarnessConfig,
    HarnessMode,
    HarnessReport,
    RangeError,
    count_weak_orders,
    default_alternative_names,
    enumerate_profiles,
    enumerate_weak_orders,
    random_profile,
    run_harness,
)
from senvr.majority import (
    CycleReport,
    PairwiseTally,
    SocialRelation,
    is_transitive,
    majority_relation,
    pairwise_tallies,
    social_ordering,
)
from senvr.orders import (
    AlternativeId,
    MembershipMatrix,
    PartitionError,
    PreferenceMap,
    Profile,
    Triple,
    UnknownAlternative,
    WeakOrder,
    is_unconcerned,
    membership_map,
    preference_map,
    restrict,
    triples,
)
from senvr.profile_io import ParseError, parse_profile, serialize_profile

__version__ = "0.1.0"

__all__ = [
    "AlternativeId",
    "CycleReport",
    "HarnessConfig",
    "HarnessMode",
    "HarnessReport",
    "InternalDisagreement",
    "MembershipMatrix",
    "PairwiseTally",
    "ParseError",
    "PartitionError",
    "PreferenceMap",
    "Profile",
    "RangeError",
    "SenVerdict",
    "SocialRelation",
    "Triple",
    "TripleReport",
    "UnknownAlternative",
    "ValueLabel",
    "WeakOrder",
    "check_membership_equation",
    "check_union_inequality",
    "check_value_restriction_oracle",
    "concerned_set",
    "count_weak_orders",
    "default_alternative_names",
    "enumerate_profiles",
    "enumerate_weak_orders",
    "is_transitive",
    "is_unconcerned",
    "majority_relation",
    "membership_map",
    "pairwise_tallies",
    "parse_profile",
    "preference_map",
    "random_profile",
    "restrict",
    "row_position_unions",
    "run_harness",
    "sen_condition",
    "serialize_profile",
    "social_ordering",
    "triples",
    "value_set",
]
