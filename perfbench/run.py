#!/usr/bin/env python3
"""Build and run the psn benchmark.

    python3 perfbench/run.py --workload forward_city --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
psn library and the benchmark (Release) into .bench_build/perfbench; later
runs only re-check the build. The benchmark binary's standard output is
passed through after its last line — the result object — has been checked
against the metric names in BENCHMARK.json. With --trace 1 the spans are
written to .bench_build/traces/. Exits non-zero, printing no result, when
the sources are missing, the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("forward_city", "paths_paper", "serve_mixed")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("psn sources (src/CMakeLists.txt) not found; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, identifying the
    measured code where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not the contract's", 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 1)


def self_test():
    build()
    rc = subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode
    sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    build()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "psn_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-out", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json"),
               "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with {run.returncode}", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
