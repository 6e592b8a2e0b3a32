#!/usr/bin/env python3
"""Compares two sets of benchmark results written by run.py --out.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
        --new b1.json b2.json ...

Refuses (exit 2) when the results differ in anything but the seed:
workload, trace mode, backbone, host CPU count, build type and flags, and
every workload setting (live sessions, update count, run length, ...).
Otherwise prints, per metric, each side's median and quartile spread and
whether the new median is worse than the base by more than the bound in
BENCHMARK.json (exit 1 if any is), or "unresolved" when either side's
spread exceeds that bound.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def comparable_config(result):
    config = dict(result["config"])
    config.pop("seed", None)
    return config


def describe_difference(a, b):
    keys = sorted(set(a) | set(b))
    return ["%s: %r != %r" % (k, a.get(k), b.get(k)) for k in keys
            if a.get(k) != b.get(k)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = p.parse_args(argv)

    base, new = load(args.base), load(args.new)
    reference = comparable_config(base[0])
    for path, r in zip(args.base + args.new, base + new):
        diff = describe_difference(reference, comparable_config(r))
        if diff:
            print("refusing to compare: %s differs from %s in %s"
                  % (path, args.base[0], "; ".join(diff)))
            return 2

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if reference.get("trace") else "end_to_end"]
    regressed = False
    print("%-34s %12s %8s %12s %8s  %s"
          % ("metric", "base", "spread", "new", "spread", "verdict"))
    for m in metrics:
        name = m["name"]
        a = [r["result"]["metrics"][name]["value"] for r in base
             if name in r["result"]["metrics"]]
        b = [r["result"]["metrics"][name]["value"] for r in new
             if name in r["result"]["metrics"]]
        if not a or not b:
            print("%-34s missing on one side" % name)
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        sa = harness.quartile_spread(a) if len(a) >= 2 and ma else 0.0
        sb = harness.quartile_spread(b) if len(b) >= 2 and mb else 0.0
        bound = m.get("bound")
        change = (mb - ma) / ma if ma else 0.0
        worse = change if m["better"] == "lower" else -change
        if bound is None:
            verdict = "%+.1f%%" % (100 * change)
        elif max(sa, sb) > bound:
            verdict = "unresolved (spread above bound %.2f)" % bound
        elif worse > bound:
            verdict = "WORSE by %.1f%% (bound %.0f%%)" % (100 * worse,
                                                          100 * bound)
            regressed = True
        else:
            verdict = "within bound (%+.1f%%)" % (100 * change)
        print("%-34s %12.5g %7.1f%% %12.5g %7.1f%%  %s"
              % (name, ma, 100 * sa, mb, 100 * sb, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
