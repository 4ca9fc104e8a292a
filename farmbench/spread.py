#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 farmbench/spread.py hh_pulse --seeds 1-10 --seconds 35

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, the
figure the benchmark's bounds are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "farmbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("seed %d failed" % seed)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"], "seed %d: incorrect" % seed
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr, flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("%-34s median %-14.6g spread %7.4f  [%s]" % (
            name, med, spread, " ".join("%.6g" % v for v in vs)))


if __name__ == "__main__":
    main()
