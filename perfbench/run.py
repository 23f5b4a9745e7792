#!/usr/bin/env python3
"""Builds the perfbench binary (with the library from src/) and runs one
workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload taxa_fd_clean --seed 1 --seconds 24 --trace 0

The build lands in .bench_build/perfbench (Release); the first run configures
and compiles, later runs only rebuild what changed. Every BD_* variable is
removed from the binary's environment so runs are hermetic.

--trace 0 runs the binary in PROCESSES fresh processes one after another,
each setting up once and measuring for seconds/PROCESSES, and pools their
samples into the end-to-end metrics: a process's own speed varies more than
a process's jobs do, so pooling processes steadies the medians. --trace 1
runs one traced process. The last stdout line is the result JSON; build
output goes to stderr.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
PROCESSES = 4

# name -> unit; every workload reports every one (see README.md).
END_TO_END = {"setup_s": "s", "rows_per_s": "rows/s", "window_p50_ms": "ms",
              "window_p90_ms": "ms", "peak_rss_mb": "MB"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, env=env, stdout=sys.stderr)
        except OSError as err:
            fail(f"cannot run {step[0]}: {err}")
        if result.returncode != 0:
            fail("build failed")


def run_untraced(command, env):
    """Pools the samples of PROCESSES perfbench processes into the result."""
    samples = []
    for _ in range(PROCESSES):
        out = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            fail(f"perfbench exited with code {out.returncode}")
        samples.append(json.loads(lines[-1])["perfbench_samples"])
    jobs = [s for p in samples for s in p["job_s"]]
    windows = [s for p in samples for s in p["window_s"]]
    attempted = sum(p["attempted"] for p in samples)
    failed = sum(p["failed"] for p in samples)
    # Same seed, same inputs: every process must reach the same output.
    references = {p["reference"] for p in samples}
    if len(references) != 1:
        failed += 1
        print(f"perfbench: processes disagree on the output: {references}",
              file=sys.stderr)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in samples),
        "rows_per_s": samples[0]["input_rows"] / statistics.median(jobs),
        "window_p50_ms": statistics.median(windows) * 1e3,
        "window_p90_ms": statistics.quantiles(
            windows, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in samples),
    }
    first = samples[0]
    detail = {k: first[k] for k in ("workload", "seed", "workers", "nproc",
                                    "build_type", "input_rows", "quality",
                                    "reference")}
    detail.update(processes=PROCESSES,
                  setup_s=[p["setup_s"] for p in samples],
                  job_s=jobs, windows=len(windows),
                  flush_ms=statistics.median(
                      s for p in samples for s in p["flush_s"]) * 1e3,
                  failed_ops_ratio=failed / max(1, attempted))
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("BD_")}
    removed = sorted(set(os.environ) - set(env))
    if removed:
        print(f"perfbench: unset {', '.join(removed)} for a hermetic run",
              file=sys.stderr)
    build(env)
    print(json.dumps({"perfbench_provenance": {
        "commit": commit(), "source_hash": source_hash()}}), flush=True)
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
              "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace == 0:
        run_untraced(command + ["--seconds", str(args.seconds / PROCESSES)],
                     env)
        return
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    sys.exit(subprocess.run(command + ["--seconds", str(args.seconds),
                                      "--out-dir", str(TRACE_DIR)],
                            env=env).returncode)


if __name__ == "__main__":
    main()
