#!/usr/bin/env python3
"""Compares a bench JSON result against its committed baseline.

Usage:
  python3 tools/check_bench_regression.py BASELINE.json CURRENT.json \
      [--tolerance=0.15] [--quality-tolerance=0.05]

Keys are classified by name:
  * counted quantities (substring "allocs" or "calls"): deterministic
    per-window accounting. The current value must not exceed
    baseline * (1 + tolerance); lower is always fine (an improvement —
    the message suggests refreshing the baseline).
  * accuracy quantities (substring "_acc"): model-quality measures in
    [0, 1] from the seeded scenario matrix. Gated from BELOW: the current
    value must not fall under baseline - quality_tolerance (an absolute
    delta — these are already normalized). Higher is always fine.
  * forgetting quantities (substring "forgetting"): lower is better;
    gated from ABOVE at baseline + quality_tolerance.
  * everything else (e.g. bench_serving's batched_window_alloc_rate,
    which varies with the achieved batch size): printed for information
    only and never failed on.

Exits 1 when any counted or quality quantity regressed, 0 otherwise.
Keys present in only one file are reported (missing baseline keys fail: the baseline must
be refreshed deliberately, not silently skipped).
"""

import argparse
import json
import sys


def is_counted(key):
    return "allocs" in key or "calls" in key


def is_accuracy(key):
    return "_acc" in key


def is_forgetting(key):
    return "forgetting" in key


def main():
    parser = argparse.ArgumentParser(
        description="Compare bench JSON against a committed baseline.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative growth for counted "
                             "quantities (default 0.15)")
    parser.add_argument("--quality-tolerance", type=float, default=0.05,
                        help="allowed absolute drop (rise) for accuracy "
                             "(forgetting) quantities (default 0.05)")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.current, encoding="utf-8") as f:
        current = json.load(f)

    failures = []
    for key in sorted(set(baseline) | set(current)):
        if key not in current:
            failures.append(f"{key}: present in baseline but not produced "
                            "by the bench (stale baseline?)")
            continue
        if key not in baseline:
            failures.append(f"{key}: produced by the bench but missing "
                            f"from {args.baseline}; add it to the baseline")
            continue
        base, cur = float(baseline[key]), float(current[key])
        if is_accuracy(key):
            floor = base - args.quality_tolerance
            if cur < floor:
                failures.append(
                    f"{key}: {cur:g} below baseline {base:g} "
                    f"(floor {floor:g}, quality tolerance "
                    f"{args.quality_tolerance:g})")
            else:
                note = ""
                if cur > base + args.quality_tolerance:
                    note = "  <- improved; consider refreshing the baseline"
                print(f"  ok    {key}: {cur:g} (baseline {base:g}){note}")
            continue
        if is_forgetting(key):
            ceiling = base + args.quality_tolerance
            if cur > ceiling:
                failures.append(
                    f"{key}: {cur:g} above baseline {base:g} "
                    f"(ceiling {ceiling:g}, quality tolerance "
                    f"{args.quality_tolerance:g})")
            else:
                note = ""
                if cur < base - args.quality_tolerance:
                    note = "  <- improved; consider refreshing the baseline"
                print(f"  ok    {key}: {cur:g} (baseline {base:g}){note}")
            continue
        if not is_counted(key):
            print(f"  info  {key}: baseline {base:g}, current {cur:g} "
                  "(not gated)")
            continue
        limit = base * (1.0 + args.tolerance)
        if cur > limit:
            failures.append(
                f"{key}: {cur:g} exceeds baseline {base:g} "
                f"(+{(cur / base - 1.0) * 100.0:.1f}%, limit "
                f"+{args.tolerance * 100.0:.0f}%)")
        else:
            note = ""
            if base > 0 and cur < base * (1.0 - args.tolerance):
                note = "  <- improved; consider refreshing the baseline"
            print(f"  ok    {key}: {cur:g} (baseline {base:g}){note}")

    if failures:
        print(f"check_bench_regression: {len(failures)} regression(s) "
              f"vs {args.baseline}:")
        for failure in failures:
            print(f"  FAIL  {failure}")
        return 1
    print(f"check_bench_regression: OK ({args.current} vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
