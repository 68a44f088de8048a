"""senvr benchmark: closed-loop CLI calls, checked against an independent reference.

    python3 bench/run.py --workload verify-random --seed 1 --seconds 35 --trace 0

One client in one single-threaded process calls ``senvr.cli.main`` with
stdout captured, one call after another, for up to ``--seconds`` of wall
time.  Every call starts from cold library caches, as a fresh CLI
process would.  Inputs come from ``--seed`` only.  Outputs are checked
outside the timed region; a call that raises, exits with an unexpected
status or prints a wrong report counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run with spans around each layer and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os

# one single-threaded process: cap native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import generate
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 25
RANDOM_M, RANDOM_N, RANDOM_TRIALS = 5, 7, 100
EXHAUSTIVE_M, EXHAUSTIVE_N = 3, 3
LARGE_M, LARGE_N = 10, 301

# On a shared virtual machine the speed drifts by 20-50%, in phases from
# seconds to minutes, and moves every raw timing of a 40 s run by up to
# 25%.  The gated call timing is therefore the median call in "cal": each
# call's time over the time of a fixed pure-Python loop run just before
# and just after it.  Raw times, the fastest call and the tail are
# printed too.  Set-up is likewise timed in cal and reported in seconds
# at CAL_S, about one cal on the baseline machine.
CAL_S = 0.0175
END_TO_END = {
    "latency_p50_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# inclusive time per CLI call of each traced function
LAYER_TIMES = [
    "profile_io.parse_profile",
    "harness.random_profile",
    "harness.enumerate_profiles",
    "condition.sen_condition",
    "condition.concerned_set",
    "condition.check_union_inequality",
    "condition.check_membership_equation",
    "condition.check_value_restriction_oracle",
    "majority.pairwise_tallies",
    "majority.majority_relation",
    "majority.is_transitive",
    "majority.social_ordering",
]
CACHED = ["orders.restrict", "orders.preference_map", "orders.membership_map", "condition.value_set"]
PER_LAYER = {
    **{f"{name}.time_s": "s/call" for name in LAYER_TIMES},
    "cli.render.self_s": "s/call",
    "harness.run_harness.self_s": "s/call",
    "condition.voter_triples": "count/call",
    "condition.concerned_voter_triples": "count/call",
    "profile_io.bytes_in": "bytes/call",
    "cli.bytes_out": "bytes/call",
    "orders.restrict.calls_per_voter_triple": "ratio",
    **{f"{name}.hit_ratio": "ratio" for name in CACHED},
    "trace.latency_p50_cal": "cal",
    "trace.span_coverage": "ratio",
}


@dataclass
class Call:
    argv: list[str]
    profiles: int
    check: Callable[[int, str], str | None]  # (exit status, stdout) -> problem or None


def _diff(got, expected: dict) -> str | None:
    if not isinstance(got, dict):
        return "output is not a JSON object"
    for key in sorted(set(got) | set(expected)):
        if got.get(key, "<missing>") != expected.get(key, "<missing>"):
            return f"field {key!r} differs from the reference"
    return None


def _check_verify(counts: tuple[int, ...], expected: dict) -> Callable[[int, str], str | None]:
    violations = counts[5]

    def check(code: int, out: str) -> str | None:
        if code != (4 if violations else 0):
            return f"exit status {code}"
        got = json.loads(out)
        if not isinstance(got, dict) or not isinstance(got.get("violations"), list):
            return "output is not a verify report"
        if len(got.pop("violations")) != min(violations, 10):
            return "violation list differs from the reference"
        return _diff(got, expected)

    return check


def _check_report(names: list[str], ranks: list[list[int]]) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit status {code}"
        return _diff(json.loads(out), reference.check_payload(names, ranks))

    return check


def verify_random(seed: int, work_dir: Path) -> tuple[list[Call], Iterator[Call]]:
    """The paper's random sweep, a fresh seed per call; checker-bound."""
    # the reference redraws each call's profiles with senvr's own sampler,
    # taken before any tracing wraps it; the verdicts are computed here
    sampler = tracing.lookup("senvr.harness", "random_profile")
    rng = random.Random(f"verify-random:{seed}")

    def check(call_seed: int) -> Callable[[int, str], str | None]:
        def run(code: int, out: str) -> str | None:
            profiles = [
                sampler(RANDOM_M, RANDOM_N, call_seed, t) for t in range(RANDOM_TRIALS)
            ]
            ranks = np.array([[v.ranks for v in p.voters] for p in profiles])
            counts = reference.sweep_counts(ranks)
            expected = reference.verify_payload(
                "random", RANDOM_M, RANDOM_N, RANDOM_TRIALS, call_seed, counts
            )
            return _check_verify(counts, expected)(code, out)

        return run

    def calls() -> Iterator[Call]:
        while True:
            call_seed = rng.getrandbits(64)
            argv = ["verify", "--random", "--m", str(RANDOM_M), "--n", str(RANDOM_N),
                    "--trials", str(RANDOM_TRIALS), "--seed", str(call_seed), "--json"]
            yield Call(argv, RANDOM_TRIALS, check(call_seed))

    return [], calls()


def verify_exhaustive(seed: int, work_dir: Path) -> tuple[list[Call], Iterator[Call]]:
    """Every m=3, n=3 profile per call: tiny profiles over 13 distinct ballots."""
    del seed, work_dir  # the sweep is the whole space, the same for every seed

    def sweep_call(m: int, n: int) -> Call:
        counts = reference.sweep_counts(reference.exhaustive_ranks(m, n))
        known = reference.KNOWN_SWEEPS[(m, n)]
        if counts != (*known, 0):
            raise reference.InconsistentReference(f"reference gives {counts} for m={m}, n={n}")
        expected = reference.verify_payload("exhaustive", m, n, None, None, counts)
        argv = ["verify", "--exhaustive", "--m", str(m), "--n", str(n), "--json"]
        return Call(argv, counts[0], _check_verify(counts, expected))

    # the m=3, n=4 space (28,561 profiles, some 5 s) is checked once through
    # the CLI before timing; the timed calls sweep the README's n=3 space,
    # short enough that a run holds dozens of them
    probe = sweep_call(3, 4)
    timed = sweep_call(EXHAUSTIVE_M, EXHAUSTIVE_N)

    def calls() -> Iterator[Call]:
        while True:
            yield timed

    return [probe], calls()


def check_large(seed: int, work_dir: Path) -> tuple[list[Call], Iterator[Call]]:
    """``check --json`` on a new 10 x 301 file per call; voter-scaled loops."""
    rng = random.Random(f"check-large:{seed}")
    path = work_dir / "check-large.profile"

    def calls() -> Iterator[Call]:
        while True:
            names, ranks, text = generate.generate(LARGE_M, LARGE_N, rng.getrandbits(64))
            path.write_text(text, encoding="utf-8")
            yield Call(["check", str(path), "--json"], 1, _check_report(names, ranks))

    return [], calls()


WORKLOADS = {
    "verify-random": verify_random,
    "verify-exhaustive": verify_exhaustive,
    "check-large": check_large,
}


def cached_functions() -> list:
    """Every memoized function defined in senvr (each has ``cache_clear``)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "senvr" and not name.startswith("senvr."):
            continue
        for value in vars(module).values():
            owner = getattr(value, "__module__", None) or ""
            if hasattr(value, "cache_clear") and owner.startswith("senvr"):
                found[id(value)] = value
    return list(found.values())


def senvr_env() -> dict[str, str]:
    """This process's environment with ``src`` first on the import path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI, in cal.

    The cal is taken just before and just after, so that the ratio follows
    the machine's speed at that moment.
    """
    before = calibrate()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import senvr.cli"], env=senvr_env(),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    return elapsed / ((before + calibrate()) / 2)


# Linux counts into a process's peak RSS the memory of the process it was
# spawned from, up to its exec.  So senvr is spawned from a small launcher
# interpreter, whose memory stays below senvr's, and not from this process,
# which holds the reference's arrays.  The launcher exits with senvr's exit
# status and prints senvr's peak RSS in KiB on stderr.
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_fresh(argv: list[str]) -> tuple[int, str, float]:
    """``python3 -m senvr <argv>`` in a fresh process: exit status, stdout, peak RSS in MB."""
    child = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "senvr", *argv],
                           env=senvr_env(), cwd=ROOT, capture_output=True, text=True)
    return child.returncode, child.stdout, int(child.stderr.split()[-1]) / 1024


def calibration_pass() -> float:
    """Wall time of one pass of a fixed pure-Python loop (sets, dicts, sorting)."""
    start = perf_counter()
    data = list(range(2000))
    for r in range(120):
        frozenset(x for x in data if x % 3 == r % 3)
        sorted({x: (x, r) for x in data[:600]}.values(), reverse=True)
    return perf_counter() - start


def calibrate() -> float:
    """One cal: the fastest of three calibration passes."""
    return min(calibration_pass() for _ in range(3))


class Runner:
    """Closed loop over one workload's calls, with optional tracing."""

    def __init__(self, cli, tracer: tracing.Tracer | None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.caches = cached_functions()
        self.tracked = {}  # cache name -> memoized function, for hit ratios
        for name in CACHED:
            fn = tracing.lookup(*tracing.COUNTED[name])
            if fn is not None and hasattr(fn, "cache_info"):
                self.tracked[name] = fn
        self.cache_lookups = {name: [0, 0] for name in self.tracked}  # hits, misses
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.call_profiles: list[int] = []
        self.bytes_out = 0
        self.peak_rss_mb: float | None = None
        self.problems: list[str] = []

    def record(self, call: Call, code: int | Exception, out: str, err: str) -> None:
        """Count one attempted call and check its output against the reference."""
        self.attempted += 1
        if isinstance(code, Exception):
            problem = f"raised {type(code).__name__}: {code}"
        else:
            try:
                problem = call.check(code, out)
            except ValueError as exc:  # includes unparsable JSON
                problem = f"unreadable output: {exc}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(call.argv)}: {problem}; stderr: {err[:200]}")

    def measure_memory(self, call: Call) -> None:
        """Run ``call`` once, untimed, in a fresh senvr process; keep its peak RSS."""
        code, out, self.peak_rss_mb = run_fresh(call.argv)
        self.record(call, code, out, "")

    def invoke(self, call: Call, timed: bool) -> None:
        for fn in self.caches:
            fn.cache_clear()
        gc.collect()
        before = {name: fn.cache_info() for name, fn in self.tracked.items()}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash fails the call, not the benchmark
                code = exc
            elapsed = perf_counter() - start
        for name, fn in self.tracked.items():
            info = fn.cache_info()
            self.cache_lookups[name][0] += info.hits - before[name].hits
            self.cache_lookups[name][1] += info.misses - before[name].misses
        self.record(call, code, out.getvalue(), err.getvalue())
        if timed:
            self.latencies.append(elapsed)
            self.call_profiles.append(call.profiles)
            self.bytes_out += len(out.getvalue().encode("utf-8"))

    def run(self, probes: list[Call], calls: Iterator[Call], seconds: float,
            between: Callable[[float, Call], None] | None = None) -> None:
        """Probes untimed, then timed calls for up to ``seconds`` of wall time.

        The loop stops when one more call as long as the last would overrun,
        so a run of long calls ends near ``seconds``, not a call past it.
        ``between(elapsed, call)`` runs before each timed call, outside its
        timing but inside the run's wall time.
        """
        for call in probes:
            self.invoke(call, timed=False)
        if self.tracer is not None:
            self.tracer.install()
        try:
            start = perf_counter()
            for call in calls:  # at least one call, however short the run
                if between is not None:
                    between(perf_counter() - start, call)
                began = perf_counter()
                before = calibrate()
                self.invoke(call, timed=True)
                # the machine's speed during this call, from just before and after
                self.calibrations.append((before + calibrate()) / 2)
                done = perf_counter()
                if done - start + (done - began) > seconds:
                    break
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def tail(self) -> tuple[float, float]:
        """Highest percentile with at least 10 calls beyond it, and its value.

        With 10 calls or fewer no percentile qualifies; the maximum is
        reported as the 100th percentile.
        """
        ordered = sorted(self.latencies)
        n = len(ordered)
        if n <= 10:
            return 100.0, ordered[-1]
        return 100.0 * (n - 10) / n, ordered[n - 11]

    def peak_rate(self) -> float:
        """Profiles per second of the fastest call."""
        return max(p / t for p, t in zip(self.call_profiles, self.latencies))

    def latency_p50_cal(self) -> float:
        """The median call in cal, each call divided by its own cal."""
        return statistics.median(t / cal for t, cal in zip(self.latencies, self.calibrations))

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "latency_p50_cal": self.latency_p50_cal(),
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "success_rate": 1 - self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float | None]:
        tr, calls = self.tracer, len(self.latencies)
        counts = tr.counts
        concerned = counts["condition.concerned_voter_triples"]
        # None for a function the package no longer has
        metrics = {f"{name}.time_s": None if name in tr.missing else tr.inclusive[name] / calls
                   for name in LAYER_TIMES}
        metrics.update({
            "cli.render.self_s": tr.exclusive["cli.main"] / calls,
            "harness.run_harness.self_s": (
                None if "harness.run_harness" in tr.missing
                else tr.exclusive["harness.run_harness"] / calls
            ),
            "condition.voter_triples": counts["condition.voter_triples"] / calls,
            "condition.concerned_voter_triples": concerned / calls,
            "profile_io.bytes_in": counts["profile_io.bytes_in"] / calls,
            "cli.bytes_out": self.bytes_out / calls,
            "orders.restrict.calls_per_voter_triple": (
                counts["orders.restrict.calls"] / concerned if concerned else None
            ),
            "trace.latency_p50_cal": self.latency_p50_cal(),
            # share of call time inside a layer span below the root; time
            # of an untraced function lands in the root's self time
            "trace.span_coverage": 1 - tr.exclusive["cli.main"] / sum(self.latencies),
        })
        for name in CACHED:
            hits, misses = self.cache_lookups.get(name, (0, 0))
            # None when the cache is gone or was never consulted
            metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else None
        return metrics


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "senvr" / "__init__.py").is_file():
        print(f"error: no senvr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import senvr.cli

    if not Path(senvr.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: senvr was imported from {senvr.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups: list[float] = []

    def between(elapsed: float, call: Call) -> None:
        if runner.peak_rss_mb is None:
            runner.measure_memory(call)
        # spread over the run, so that one slow phase does not set the median
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(time_setup())

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work_dir:
        probes, calls = WORKLOADS[args.workload](args.seed, Path(work_dir))
        runner = Runner(senvr.cli, tracing.Tracer() if args.trace else None)
        runner.run(probes, calls, args.seconds, None if args.trace else between)
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(time_setup())

    for problem in runner.problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    pct, _ = runner.tail()
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.latencies)} timed calls, "
          f"{runner.attempted} attempted, {runner.failed} failed "
          f"(error_rate {runner.failed / runner.attempted:g})")
    if args.trace:
        tr = runner.tracer
        if tr.missing:
            print(f"not traced, gone from senvr: {', '.join(tr.missing)}", file=sys.stderr)
        print(f"{'span':44} {'spans':>9} {'inclusive_s':>12} {'self_s':>10}")
        for name in sorted(tr.spans, key=tr.inclusive.get, reverse=True):
            print(f"{name:44} {tr.spans[name]:9d} {tr.inclusive[name]:12.4f} {tr.exclusive[name]:10.4f}")
        values, units = runner.per_layer(), PER_LAYER
    else:
        median = statistics.median(runner.latencies)
        print(f"ungated: latency_min_ms = {1000 * min(runner.latencies)} ms; "
              f"latency_p50_ms = {1000 * median} ms; latency_tail_ms = "
              f"{1000 * runner.tail()[1]} ms (p{pct:.1f} of {len(runner.latencies)} calls); "
              f"profiles_per_s = {runner.peak_rate()} profiles/s at the fastest call, "
              f"{runner.call_profiles[0] / median} at the median call; "
              f"median cal = {1000 * statistics.median(runner.calibrations)} ms")
        values, units = runner.end_to_end(statistics.median(setups) * CAL_S), END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
