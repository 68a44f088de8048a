"""Layer spans and counters, recorded around senvr's functions from outside.

``Tracer.install`` rebinds each traced function, in every ``senvr``
module that holds it, to a wrapper; ``uninstall`` puts the originals
back.  Spans are aggregated in memory as they close (inclusive time,
self time = inclusive minus the time of spans opened inside it, and
count per span name) and read once the run ends.  A traced function
that a later version of the package no longer has is not traced; its
name is listed in ``Tracer.missing``.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, function); "cli.main" is the root of every call
SPANS = {
    "cli.main": ("senvr.cli", "main"),
    "profile_io.parse_profile": ("senvr.profile_io", "parse_profile"),
    "harness.run_harness": ("senvr.harness", "run_harness"),
    "harness.random_profile": ("senvr.harness", "random_profile"),
    "harness.enumerate_profiles": ("senvr.harness", "enumerate_profiles"),
    "condition.sen_condition": ("senvr.condition", "sen_condition"),
    "condition.concerned_set": ("senvr.condition", "concerned_set"),
    "condition.check_union_inequality": ("senvr.condition", "check_union_inequality"),
    "condition.check_membership_equation": ("senvr.condition", "check_membership_equation"),
    "condition.check_value_restriction_oracle": (
        "senvr.condition",
        "check_value_restriction_oracle",
    ),
    "majority.pairwise_tallies": ("senvr.majority", "pairwise_tallies"),
    "majority.majority_relation": ("senvr.majority", "majority_relation"),
    "majority.is_transitive": ("senvr.majority", "is_transitive"),
    "majority.social_ordering": ("senvr.majority", "social_ordering"),
}

# functions whose calls are counted but not timed: they run per voter and
# triple, so a span each would dominate what it measures
COUNTED = {
    "orders.restrict": ("senvr.orders", "restrict"),
    "orders.preference_map": ("senvr.orders", "preference_map"),
    "orders.membership_map": ("senvr.orders", "membership_map"),
    "condition.value_set": ("senvr.condition", "value_set"),
}


def _count_parse(counts: Counter, args: tuple, result) -> None:
    counts["profile_io.bytes_in"] += len(args[0].encode("utf-8"))


def _count_triples(counts: Counter, args: tuple, result) -> None:
    reports = result.per_triple
    counts["condition.voter_triples"] += args[0].num_voters * len(reports)
    counts["condition.concerned_voter_triples"] += sum(len(r.concerned) for r in reports)


_AFTER = {
    "profile_io.parse_profile": _count_parse,
    "condition.sen_condition": _count_triples,
}


def lookup(module: str, name: str):
    """The named senvr function, or None if the package no longer has it."""
    return getattr(importlib.import_module(module), name, None)


class Tracer:
    def __init__(self) -> None:
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.exclusive: defaultdict[str, float] = defaultdict(float)
        self.spans: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._child_time = [0.0]  # per open span: time of spans closed inside it
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.missing: list[str] = []  # traced names the package no longer has

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = self._child_time.pop()
                self._child_time[-1] += elapsed
                self.inclusive[name] += elapsed
                self.exclusive[name] += elapsed - inner
                self.spans[name] += 1
            if after is not None:
                after(self.counts, args, result)
            if isinstance(result, types.GeneratorType):
                return self._timed_items(name, result)
            return result

        return wrapper

    def _timed_items(self, name: str, items):
        # a lazy stream does its work when the consumer pulls, so time each pull
        step = self._timed(name, items.__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def _counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = []
        for name, (module, attr) in SPANS.items():
            fn = lookup(module, attr)
            if fn is None:
                self.missing.append(name)
            else:
                wrappers.append((fn, self._timed(name, fn, _AFTER.get(name))))
        for name, (module, attr) in COUNTED.items():
            fn = lookup(module, attr)
            if fn is None:
                self.missing.append(name)
            else:
                wrappers.append((fn, self._counted(name, fn)))
        modules = [m for n, m in sys.modules.items() if n == "senvr" or n.startswith("senvr.")]
        for fn, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
