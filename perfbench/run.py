#!/usr/bin/env python3
"""Build the Twig benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solo-learn --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The Go build cache, the binary and its scratch files live under the
build directory, $CARGO_TARGET_DIR when it is set and .bench_build
otherwise, so nothing is written outside the checkout. The last line of
standard output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
        # The go command keeps its settings and telemetry counters under
        # the user config directory; keep them in the build directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--workdir", os.path.join(build, "work")]
    return subprocess.run([exe] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
