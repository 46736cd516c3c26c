#!/usr/bin/env python3
"""Build the memcached-path benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0

The Go build cache and the binary go to .bench_build/ at the repository root,
so the benchmark writes nothing outside the checkout. The flags are passed to
the benchmark unchanged; its exit code is this script's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),  # go telemetry and env
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
