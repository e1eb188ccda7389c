#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's quartile spread.

    python3 perfbench/spread.py --workload words --seeds 1-10 [--seconds 30] [--trace 0]

For every metric of the final result line it prints the median of the runs
and the spread (third quartile minus first, from
``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs are made one after another so they
do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(json.dumps({"seed": seed, "wall_s": round(time.perf_counter() - start, 1),
                          "correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:12.6g}  spread {spread:7.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
