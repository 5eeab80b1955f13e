#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Workloads: table2, bmc-deep and fuzz, listed in BENCHMARK.json, and pool,
which runs the campaign on two domains. pool is not listed: its verdicts
are not yet reproducible (wrong verdicts in some runs), and the benchmark
reports them as failed operations. The last line of standard output is the
result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to standard error. The exit code is not 0 when the
checkout cannot be built or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: dune-project and lib/ not found; run from the root "
            "of a source checkout\n")
        return 2
    # build only what the benchmark needs; no shared dune cache outside
    # the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    run = subprocess.run([EXE] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
