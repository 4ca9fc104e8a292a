#!/usr/bin/env python3
"""Build the FARM benchmark from source and run it.

Run from the repository root:

    python3 farmbench/run.py --workload hh_pulse --seed 1 --seconds 35 --trace 0

Workloads: hh_pulse, deploy_verify, attack_storm.  The build log goes to
standard error; the benchmark's report, ending in one JSON line with the
metrics, goes to standard output.  Exits non-zero when the build fails or
a correctness check fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "farmbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./farmbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("farmbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
