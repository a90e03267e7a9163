#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune
(build output stays in _build inside the checkout; the shared dune cache
is disabled), then replaces itself with the benchmark, which prints the
result object as its last line.  Exits non-zero when the build fails,
e.g. when the library sources are missing.
"""
import os
import shutil
import subprocess
import sys


def main():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
