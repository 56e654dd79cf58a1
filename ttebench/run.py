#!/usr/bin/env python3
"""Build and run the time-to-certified-equilibrium benchmark.

Run from the root of a checkout:

    python3 ttebench/run.py --workload city-sync --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (the build cache
lives there too, so nothing is written outside the checkout), then run
with the given arguments. Its standard output passes through unchanged;
the last line is the JSON result. The exit code is the program's, or
non-zero if the build fails.
"""

import os
import subprocess
import sys

# The program stops itself after 170 s; this is the backstop.
RUN_TIMEOUT_S = 178


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "ttebench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("ttebench: build failed", file=sys.stderr)
        return built.returncode or 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("ttebench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
