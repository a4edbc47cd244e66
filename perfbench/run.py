#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload dge_lane --seed 42 --seconds 20 --trace 0

Run from the repository root. The harness is a Go module of its own in
perfbench/ that uses the engine packages of the enclosing module; this
script builds it from source into the build directory ($CARGO_TARGET_DIR,
else .bench_build) with the Go build cache kept there too, then runs it
from the root with the given arguments. Databases and span dumps go to
.bench_out/. The harness's exit status is passed through; a build failure
exits 2 without printing a result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)

    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
