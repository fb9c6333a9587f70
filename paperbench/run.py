#!/usr/bin/env python3
"""Paper-matrix benchmark launcher.

Builds the benchmark (paperbench/CMakeLists.txt, which compiles the
simulator from this checkout's src/) into .bench_build/paperbench, runs
one workload, and passes its output through. The last line of standard
output is the result object; build logs go to standard error. Run it
from the root of a checkout:

    python3 paperbench/run.py --workload uni_matrix --seed 0 \
        --seconds 40 --trace 0

Exits non-zero, printing no result, when the sources are missing, the
build or the run fails, or the result does not carry exactly the
metrics BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "paperbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("paperbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if result.returncode != 0:
        fail("failed (exit %d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) in " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "paperbench",
                "-j", jobs], max(1.0, remaining))
    return os.path.join(BUILD_DIR, "paperbench")


def source_digest():
    """sha256 over the simulator and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "paperbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or \
            shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    exe = build()
    print("provenance: git_sha=%s source_sha256=%s" %
          (git_sha(), source_digest()), flush=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--launch-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = output.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object: " + lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
