#!/usr/bin/env python3
"""Builds and runs the WatchIT benchmark for one workload.

    python3 perfbench/run.py --workload helpdesk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the libraries under src/ plus watchit_perfbench.cc) into
.bench_build/; later runs rebuild incrementally. The program's output is
passed through; this script then checks the run's digest against the value
recorded for its seed and prints the final JSON result line. The exit code
is 0 only when the build, the run and every correctness check succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "watchit_perfbench")
# Digests recorded when the benchmark was defined, and digests recorded by
# earlier runs in this checkout; a seed seen before must reproduce its value.
PINNED_DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SEEN_DIGESTS = os.path.join(BUILD_DIR, "digests.json")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "watchit_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_digest(key, value):
    """Returns an error string when `value` contradicts a recorded digest."""
    for path in (PINNED_DIGESTS, SEEN_DIGESTS):
        expected = load(path).get(key)
        if expected is not None and expected != value:
            return "digest %s is %s, recorded %s in %s" % (
                key, value, expected, os.path.basename(path))
    seen = load(SEEN_DIGESTS)
    if key not in seen:
        seen[key] = value
        tmp = SEEN_DIGESTS + ".tmp"
        with open(tmp, "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(tmp, SEEN_DIGESTS)
    return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["helpdesk", "long_sessions", "admin_files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("benchmark program exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    problems = []
    if proc.returncode != 0:
        problems.append("benchmark program exited %d" % proc.returncode)
    digests = [line.split() for line in lines if line.startswith("digest ")]
    if len(digests) != 1:
        problems.append("expected one digest line, got %d" % len(digests))
    else:
        error = check_digest(digests[0][1], digests[0][2])
        if error:
            problems.append(error)
    missing = [m for m in expected_metrics(args.trace) if m not in result["metrics"]]
    if missing:
        problems.append("metrics missing: " + ", ".join(missing))
    for problem in problems:
        print("check FAILED: " + problem)
    result["correct"] = bool(result["correct"]) and not problems
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
