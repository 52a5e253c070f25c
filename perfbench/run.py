#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-direct --seed 1 --seconds 15 --trace 0

The Go benchmark (this directory, a module of its own that builds the
repository's packages from ../) is compiled into .bench_build/perfbench
with its build cache, temp files and calibration cache kept under
.bench_build, so the run reads and writes only inside the checkout.
Arguments are passed through to the compiled program.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    state = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(root, ".bench_build", "gocache"),
        GOPATH=os.path.join(root, ".bench_build", "gopath"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        TMPDIR=tmp,
    )
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    binary = os.path.join(state, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
