"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 10 --seconds 35 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed) untraced, one process at
a time, then once per workload traced (first seed).  For every end-to-end
metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  The traced runs
give the per-layer values and the tracing overhead (traced over untraced
``latency_p50_cal``).  The summary also records the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(child.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if v["value"] is not None), flush=True)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed calls")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"machine": machine(), "seconds": args.seconds,
               "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = {"end_to_end": {name: summarize([r[name] for r in runs]) for name in runs[0]}}
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:18} {name:16} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f}", flush=True)
        traced = run_once(workload, summary["seeds"][0], args.seconds, 1)
        entry["per_layer"] = traced
        entry["tracing_overhead"] = (
            traced["trace.latency_p50_cal"] / entry["end_to_end"]["latency_p50_cal"]["median"]
        )
        print(f"{workload:18} tracing overhead {entry['tracing_overhead']:.3f}x", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
