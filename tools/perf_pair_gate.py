#!/usr/bin/env python3
"""Same-machine perf gate over two sides of k perfbench runs each.

    for i in 1 2 3; do
      python3 perfbench/run.py --workload paced_e2e --seed 1 --seconds 1 --trace 1 > first_$i.out
      python3 perfbench/run.py --workload paced_e2e --seed 1 --seconds 1 --trace 1 > second_$i.out
    done
    python3 tools/perf_pair_gate.py --first first_*.out --second second_*.out

The last line of each file is a perfbench result object. The gate reads
the per-call kernel and layer costs named in GATED from every run, takes
the median of each over the runs of a side, takes each one's direction
from BENCHMARK.json per_layer[].better, and exits 1 when the second
side's median is worse than the first side's by more than MAX_SWING on
any of them. Both sides come from the same code on the same machine, so
a swing that large is a pathology in the code (lock contention, an
accidental quadratic path), not runner speed. Alternating the runs of
the two sides spreads a slow stretch of the machine over both, and the
median drops a single slow run.
"""
import argparse
import json
import math
import os
import statistics
import sys

GATED = [
    "dsp.rfft_512_us",
    "dsp.rfft_16384_us",
    "dsp.rfft_32768_us",
    "defense.features.p50_us",
    "asr.mfcc.p50_us",
    "asr.dtw.p50_us",
    "serve.session.snapshot_us",
    "serve.session.restore_us",
]
MAX_SWING = 0.50


def last_result(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        sys.exit(f"perf-pair-gate: no result line in {path}")
    return json.loads(lines[-1])["metrics"]


def usable(v):
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def side_median(results, name):
    """Median of `name` over one side's runs, or None if any run lacks it."""
    values = [r.get(name, {}).get("value") for r in results]
    if not all(usable(v) for v in values):
        return None
    return statistics.median(values)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", nargs="+", required=True,
                        help="result files of the first side")
    parser.add_argument("--second", nargs="+", required=True,
                        help="result files of the second side")
    args = parser.parse_args(argv[1:])
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["per_layer"]}
    first = [last_result(p) for p in args.first]
    second = [last_result(p) for p in args.second]
    failed = 0
    print(f"medians over {len(first)} + {len(second)} runs")
    print(f"{'metric':28} {'first':>12} {'second':>12} {'worse by':>9}")
    for name in GATED:
        a, b = side_median(first, name), side_median(second, name)
        if a is None or b is None:
            print(f"{name:28} {a!r:>12} {b!r:>12}   ** MISSING OR NOT POSITIVE **")
            failed += 1
            continue
        worse = (b - a) / a if better[name] == "lower" else (a - b) / a
        flag = worse > MAX_SWING
        failed += flag
        print(f"{name:28} {a:12.4g} {b:12.4g} {100 * worse:+8.1f}%"
              + ("   ** REGRESSION **" if flag else ""))
    if failed:
        print(f"perf-pair-gate: {failed} of {len(GATED)} metric(s) worse by "
              f"more than {100 * MAX_SWING:.0f}% or unreadable", file=sys.stderr)
        return 1
    print(f"perf-pair-gate: all {len(GATED)} metrics within "
          f"{100 * MAX_SWING:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
