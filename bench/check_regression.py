#!/usr/bin/env python3
"""Validate BENCH_*.json records and gate on simulated-wall regressions.

Every bench binary emits one-line JSON records (bench/bench_util.h,
BenchRecord) into a directory named by BD_BENCH_JSON_DIR. This script

 1. checks that every line of every BENCH_*.json file in --dir is valid
    JSON with the standardized fields (bench, label, config, metrics, and
    metrics.simulated_wall_seconds), and
 2. compares metrics.simulated_wall_seconds per (bench, label) against the
    committed baseline (bench/baselines/baseline.json); a result more than
    --threshold (default 25%) slower than baseline is a regression.

Besides the baseline comparison, records may carry self-describing
invariant gates: a record whose config has min_speedup > 0 must have
metrics.speedup >= that bound, and one whose config has min_wall_speedup
> 0 must have metrics.wall_speedup >= that bound (bench_stream_ingest uses
both to pin the incremental-index advantage over full re-detect: >= 5x in
simulated wall, >= 2x in real wall). Gate failures are correctness
failures, not perf regressions — --advisory does not downgrade them.

Exit status: 0 when everything validates and no regression (or --advisory
was given); 1 on malformed records, failed invariant gates, or when a
baseline entry was not produced by this run (a bench crashed or stopped
emitting its record — --advisory does not downgrade these, it only covers
regressions); 2 on regressions without --advisory.

--verbose prints the full per-bench delta table on success too (it always
prints on regression), so healthy CI logs still show every bench's
movement against baseline.

Updating the baseline: run the bench subset with the same BD_SCALE as CI,
then  python3 bench/check_regression.py --dir <dir> --update-baseline
which rewrites the committed bench/baselines/baseline.json (or the file
given via --baseline) from this run's records. --write-baseline <path>
does the same to an explicit path.
"""

import argparse
import glob
import json
import os
import sys

REQUIRED_TOP_LEVEL = ("bench", "label", "config", "metrics", "registry")
WALL_KEY = "simulated_wall_seconds"
# Self-describing invariant gates: (config lower bound, gated metric).
GATES = (("min_speedup", "speedup"), ("min_wall_speedup", "wall_speedup"))


def load_records(directory):
    """Parses every line of every BENCH_*.json file; returns (records, errors)."""
    records, errors = [], []
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        errors.append(f"no BENCH_*.json files found in {directory!r}")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    errors.append(f"{path}:{lineno}: blank line")
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"{path}:{lineno}: invalid JSON: {exc}")
                    continue
                missing = [k for k in REQUIRED_TOP_LEVEL if k not in rec]
                if missing:
                    errors.append(f"{path}:{lineno}: missing fields {missing}")
                    continue
                if WALL_KEY not in rec["metrics"]:
                    errors.append(f"{path}:{lineno}: metrics.{WALL_KEY} missing")
                    continue
                records.append(rec)
    return records, errors


def key_of(record):
    return f"{record['bench']}|{record['label']}"


def print_delta_table(compared, threshold, stream):
    """Full per-bench delta table, worst ratio first, so the log shows
    every bench's movement — not just the offenders."""
    width = max(len(k) for k, *_ in compared)
    print(f"\nper-bench simulated-wall deltas "
          f"(threshold {threshold:.0%}):", file=stream)
    header = (f"{'bench|label':<{width}}  {'baseline_s':>12}  "
              f"{'current_s':>12}  {'ratio':>7}  status")
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for key, base_wall, wall, ratio, status in sorted(
            compared, key=lambda row: row[3], reverse=True):
        print(f"{key:<{width}}  {base_wall:>12.6f}  {wall:>12.6f}  "
              f"{ratio:>6.2f}x  {status}", file=stream)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".", help="directory with BENCH_*.json")
    parser.add_argument("--baseline", help="committed baseline JSON to compare against")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional slowdown (0.25 = 25%%)")
    parser.add_argument("--advisory", action="store_true",
                        help="report regressions but exit 0 (first-run mode)")
    parser.add_argument("--verbose", action="store_true",
                        help="print the per-bench delta table even when "
                             "there are no regressions")
    parser.add_argument("--write-baseline",
                        help="write the current results as a new baseline and exit")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the pinned baseline (--baseline "
                             "path, or the committed "
                             "bench/baselines/baseline.json) from this "
                             "run's records and exit")
    args = parser.parse_args()

    if args.update_baseline and not args.write_baseline:
        args.write_baseline = args.baseline or os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "baselines", "baseline.json")

    records, errors = load_records(args.dir)
    for e in errors:
        print(f"MALFORMED: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"validated {len(records)} record(s) from {args.dir}")

    gate_failures = []
    for rec in records:
        for bound_key, metric_key in GATES:
            bound = rec["config"].get(bound_key, 0)
            if not bound:
                continue
            value = rec["metrics"].get(metric_key)
            if value is None:
                gate_failures.append(
                    f"{key_of(rec)}: config.{bound_key}={bound} but the "
                    f"record has no metrics.{metric_key}")
            elif value < bound:
                gate_failures.append(
                    f"{key_of(rec)}: {metric_key} {value:.2f}x below the "
                    f"bench's own {bound_key} gate of {bound:.2f}x")
            else:
                print(f"      GATE  {key_of(rec)}: {metric_key} "
                      f"{value:.2f}x >= {bound:.2f}x")
    if gate_failures:
        for failure in gate_failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1

    current = {}
    for rec in records:
        # A bench emitting the same (bench, label) twice in one run keeps
        # the last record, matching the append semantics of BenchRecord.
        current[key_of(rec)] = rec["metrics"][WALL_KEY]

    if args.write_baseline:
        baseline = {k: {WALL_KEY: v} for k, v in sorted(current.items())}
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(baseline)} baseline entries to {args.write_baseline}")
        return 0

    if not args.baseline:
        print("no --baseline given; validation-only run")
        return 0

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)

    regressions = []
    compared = []
    missing = []
    for key, base in sorted(baseline.items()):
        base_wall = base[WALL_KEY]
        if key not in current:
            missing.append(key)
            continue
        wall = current[key]
        ratio = wall / base_wall if base_wall > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            regressions.append((key, base_wall, wall, ratio))
        compared.append((key, base_wall, wall, ratio, status))
        print(f"{status:>10}  {key}: baseline {base_wall:.6f}s -> {wall:.6f}s "
              f"({ratio:.2f}x)")
    for key in sorted(set(current) - set(baseline)):
        print(f"NOTE: {key} has no baseline entry (new bench/label?)")

    if missing:
        # A baseline bench that produced no record this run means the
        # bench crashed, was dropped from the suite, or stopped emitting
        # its BENCH_<name>.json — none of which a perf gate may paper
        # over. This is a validation failure, so --advisory (which only
        # downgrades perf regressions) does not apply.
        for key in missing:
            print(f"MISSING: baseline entry {key!r} was not produced by "
                  f"this run (no matching record in any BENCH_*.json "
                  f"under {args.dir!r})", file=sys.stderr)
        print(f"\n{len(missing)} baseline bench(es) emitted no record; "
              f"if a bench was intentionally removed, refresh the "
              f"baseline with --write-baseline", file=sys.stderr)
        return 1

    if regressions:
        print_delta_table(compared, args.threshold, sys.stderr)
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} threshold", file=sys.stderr)
        return 0 if args.advisory else 2
    if args.verbose and compared:
        print_delta_table(compared, args.threshold, sys.stdout)
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
