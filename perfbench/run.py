#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from ../src) into .bench_build/;
later calls only re-check the build. The benchmark binary prints a
fingerprint line and a result line; this script checks the result's
metric names and units against BENCHMARK.json, fills in 0 for the
per-layer metrics of layers the workload does not exercise, and prints
the result as the last line of its output. Build logs go to stderr.

Exits nonzero without a result when the library sources are missing,
the build fails, the binary fails or overruns, or the result does not
match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference", "suite_means.txt")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected ../src)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBAYES_OBS=ON",
                      "-DBAYES_SANITIZE="])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, "trace_%s.json" % args.workload)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark overran %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if expected.get(name) != metric["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json with that unit"
                 % (name, metric["unit"]))
    missing = [name for name in expected if name not in metrics]
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    result["metrics"] = dict(sorted(metrics.items()))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
