#!/usr/bin/env python3
"""Same-machine perf gate over two perfbench runs.

    python3 perfbench/run.py --workload paced_e2e --seed 1 --seconds 1 --trace 1 > first.out
    python3 perfbench/run.py --workload paced_e2e --seed 1 --seconds 1 --trace 1 > second.out
    python3 tools/perf_pair_gate.py first.out second.out

The last line of each file is a perfbench result object. The gate reads
the per-call kernel and layer costs named in GATED from both, takes each
one's direction from BENCHMARK.json per_layer[].better, and exits 1 when
the second run is worse than the first by more than MAX_SWING on any of
them. Both runs come from the same code on the same machine, so a swing
that large is a pathology in the code (lock contention, an accidental
quadratic path), not runner speed.
"""
import json
import math
import os
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


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["per_layer"]}
    first, second = last_result(argv[1]), last_result(argv[2])
    failed = 0
    print(f"{'metric':28} {'first':>12} {'second':>12} {'worse by':>9}")
    for name in GATED:
        a = first.get(name, {}).get("value")
        b = second.get(name, {}).get("value")
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                   for v in (a, b)):
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
