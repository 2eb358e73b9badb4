#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10          # every workload

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per workload and metric, the median of the runs,
the distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), and the metric's bound. A spread at or above
the bound marks the metric UNSTEADY; at or above a third of it, "wide".
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct=false", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  file=sys.stderr, flush=True)
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "UNSTEADY" if spread >= bound else "wide" if spread >= bound / 3 else ""
            print(f"  {name:16s} median {med:12.6g}  iqr/median {spread:7.4f}  "
                  f"bound {bound:5.3f}  {flag}", flush=True)


if __name__ == "__main__":
    main()
