#!/usr/bin/env python3
"""Build the benchmark and bulletd from source, then run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload tcp-read-hot --seed 1 --seconds 20 --trace 0

Workloads: tcp-read-hot, tcp-create, inproc-trace-cold.  The last line of
standard output is the JSON result; the lines above it are a readable
report that gives every metric with its unit and sample count.  Build
output goes to standard error.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

SOURCES = ("dune-project", "lib", "bin/bulletd.ml", "perfbench/bench.ml")
BENCH = "_build/default/perfbench/bench.exe"
BULLETD = "_build/default/bin/bulletd.exe"


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench/run.py: dune is not on PATH")


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.exit("perfbench/run.py: run from the root of a checkout; missing " + ", ".join(missing))
    # keep every file the build writes inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.abspath("perfbench/out/cache"))
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe", "./bin/bulletd.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench/run.py: build failed")
    # Each in-process pass makes and frees a pair of 64 MiB drives.  With
    # glibc's sliding mmap threshold, whether a pass reused the freed
    # memory or faulted it in afresh changed from run to run and moved
    # setup_s between 0.04 and 0.12 s.  A fixed threshold above the
    # drive size and no trimming make every pass after the first reuse
    # it.  bench.exe starts bulletd without these two settings.
    malloc = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
    os.execve(BENCH, [BENCH] + sys.argv[1:] + ["--bulletd", BULLETD], dict(os.environ, **malloc))


if __name__ == "__main__":
    main()
