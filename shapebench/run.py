#!/usr/bin/env python3
"""Builds and runs the shapestats benchmark.

    python3 shapebench/run.py --workload lubm-analytic --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The benchmark compiles the engine from
../src together with the benchmark in this directory (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload. Its inputs and traces go under the same directory. The last
line of standard output is the result object; see README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("shapebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "shapebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the shapestats sources (src/) are not next to this directory")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    # No SHAPESTATS_* setting may change a run: the engine's options are
    # pinned in main.cc, and the environment is cleared of the rest.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SHAPESTATS_")}
    binary = build(build_dir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed no result")
    if set(json.loads(lines[-1])) != {"correct", "attempted", "failed",
                                      "metrics"}:
        fail("malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
