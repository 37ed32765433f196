#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-week-exact --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays inside the checkout, under the
directory named by CARGO_TARGET_DIR (default .bench_build): the Go build
cache, the binary, the workload fixtures and the span files. The Go module in
this directory builds against the simulator sources one level up, so the
build fails (and this script exits non-zero without printing a result) when
they are not there.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "go-cache"),
        GOPATH=os.path.join(out, "go-path"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-root", ROOT, "-out", out] + sys.argv[1:]
    os.execve(binary, args, env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
