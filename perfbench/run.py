#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `shadowfax-server` and the load
generator (`perfbench/loadgen`) from source with cargo, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the load generator,
which starts the servers, drives the workload over loopback TCP and checks
every key afterwards.  Its diagnostics go to stderr; the last line of stdout
is the result object.  Metric names are checked against BENCHMARK.json.

Every process the run starts lives in one process group, which is killed
and waited for on every exit path.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The load generator gives up after 150 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "shadowfax-rpc",
         "--bin", "shadowfax-server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "loadgen", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def stop_group(proc):
    """Kills the run's process group and waits until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    fail("processes of the run did not exit")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)

    exe = os.path.join(target_dir, "release", "shadowfax-perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(target_dir, "release", "shadowfax-server"),
        "--out", os.path.join(ROOT, "perfbench-out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)

    lines = out.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != expected:
        fail(f"metrics differ from BENCHMARK.json {kind}: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
