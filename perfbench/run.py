#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/main.exe with dune (the
first build compiles the library stack it links), then runs it with the
same arguments.  Its standard output ends with one JSON line; see
perfbench/README.md.
"""

import os
import subprocess
import sys

# A run must end within 180 s; the benchmark binary is stopped before that.
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "core"))):
        sys.stderr.write("run.py: run from the repository root (no dune-project or lib/core here)\n")
        return 2
    # dune's shared cache and the native-code compiler's temporary files
    # would otherwise land outside the working tree
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    tmp = os.path.abspath(os.path.join("_build", "perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run(
            [exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S, env=dict(os.environ, TMPDIR=tmp)
        ).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark did not finish within %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
