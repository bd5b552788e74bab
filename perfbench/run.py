#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tatp_uniform --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only rebuild what changed. The benchmark binary prints progress lines
and, as its last line, one JSON object with the run's metrics, which this
script passes through after checking its shape. Failed output checks are
reported as "correct": false in that line. Exits non-zero when the build
fails, the benchmark fails or times out, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tatp_uniform", "smallbank_hot", "bank_disrupt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(os.path.dirname(log_path), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return None


def tail(path, lines=30):
    with open(path) as f:
        return "".join(f.readlines()[-lines:])


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          log_path, BUILD_TIMEOUT_S)
        if code != 0:
            # A failed configure must not leave a cache that skips the
            # next attempt's configure.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail("configure failed:\n" + tail(log_path))
    jobs = str(min(4, os.cpu_count() or 1))
    code = run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      log_path, BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed:\n" + tail(log_path))
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    if result["attempted"] < 1 or result["failed"] < 0:
        raise ValueError("bad counts")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in wanted
                   if m["name"] not in result["metrics"]]
        if missing:
            raise ValueError("missing metrics: " + ", ".join(missing))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("benchmark exited with code %d and no result" % proc.returncode)
    try:
        result = check_result(lines[-1], args.trace == 1)
    except ValueError as error:
        fail("malformed result (%s): %s" % (error, lines[-1]))
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    if not result["correct"]:
        print("perfbench: output checks failed; see the messages above",
              file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
