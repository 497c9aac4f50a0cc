#!/usr/bin/env python3
"""Builds `moche` and the benchmark harness from source, then runs one
benchmark run.

    python3 e2ebench/run.py --workload explain --seed 1 --seconds 20 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build in the working directory) and to stderr; stdout
carries the run's report, whose last line is the JSON result. Exits
nonzero, printing no result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(cmd, env):
    """Runs one cargo build, its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("run.py: no Cargo.toml here; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    if not (build(["cargo", "build", "--release", "--offline", "--quiet",
                   "-p", "moche-cli", "--bin", "moche"], env)
            and build(["cargo", "build", "--release", "--offline", "--quiet",
                       "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)):
        return 1

    cmd = [os.path.join(target, "release", "e2ebench"), "run",
           "--moche", os.path.join(target, "release", "moche"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--spec", os.path.join(root, "BENCHMARK.json")]
    # A process group of its own, so a timeout also stops the daemons the
    # harness started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s; stopping it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
