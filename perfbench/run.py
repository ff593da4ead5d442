#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload flickr-memory --seed 1 --seconds 20 --trace 0

The Go benchmark in this directory is built from source into
.bench_build/ (build cache included, so nothing is written outside the
checkout), then run. Its last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# A run must end within 180 s; the Go side stops itself at 165 s.
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    go_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(go_mod):
        fail("no go.mod at %s: run from a checkout of the repository" % ROOT)
    with open(go_mod) as f:
        if "module repro\n" not in f.read():
            fail("%s is not the repro module" % go_mod)
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command's own config and telemetry files live here.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    r = subprocess.run([go, "build", "-trimpath", "-o", BINARY, "."],
                       cwd=HERE, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", os.path.join(BUILD, "perfbench")]
    # Own session, so that every process the run starts (the dist
    # workers) can be stopped together however the run ends.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        code = p.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        p.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
