#!/usr/bin/env python3
"""Builds and runs the THALI benchmark from the root of a source checkout.

    python3 thalibench/run.py --workload interactive_416 --seed 1 \
        --seconds 15 --trace 0

Configures and builds thalibench/ (which compiles the repository's src/
and bench/bench_common.cc) into .bench_build/cmake, then runs the
benchmark binary in .bench_build/work. The first run there trains the
model once into .bench_build/work/thali_cache; later runs reuse it.

The binary's report goes to standard output. Before the last line this
script adds a provenance line: the source revision and the md5 of the
trained weights and of the int8 calibration the run served. The last line
is the JSON result. The exit code is the binary's (0 only when every
output check passed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK = BUILD / "work"
WORKLOADS = ("interactive_416", "overload_mixed")
RUN_TIMEOUT_S = 1500


def fail(message, code=2):
    print(f"thalibench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a THALI source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "thalibench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def md5_of(path):
    if not path.is_file():
        return "none"
    return hashlib.md5(path.read_bytes()).hexdigest()


def source_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "commit:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: hash the sources the benchmark builds.
    h = hashlib.md5()
    for top in ("src", "bench", "thalibench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-md5:" + h.hexdigest()


def main():
    args = parse_args()
    build()
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "calibration.thalical").unlink(missing_ok=True)
    cmd = [str(CMAKE_DIR / "thalibench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=WORK, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = lines.pop()
        if set(json.loads(result)) != {"correct", "attempted", "failed",
                                       "metrics"}:
            fail("malformed result line", 4)
    for line in lines:
        print(line)
    print("provenance revision=%s weights_md5=%s calibration_md5=%s" % (
        source_revision(), md5_of(WORK / "thali_cache" / "main.weights"),
        md5_of(WORK / "calibration.thalical")))
    if result is None:
        fail(f"no result (benchmark exit code {done.returncode})",
             done.returncode or 4)
    print(result)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
