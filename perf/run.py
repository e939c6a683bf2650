#!/usr/bin/env python3
"""End-to-end benchmark of crowdmax.

Builds the library and the benchmark program from source (first use only;
later runs re-check the build), runs one workload of BENCHMARK.json, checks
its outputs and prints the result. Run from the repository root:

    python3 perf/run.py --workload alg1_memo --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --workload all          # every workload, in turn

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a traced run.
The exit status is 0 only when every output check passed; a build or set-up
failure exits nonzero without printing a result. perf/README.md explains
the workloads and every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf")
PROGRAM = os.path.join(BUILD_DIR, "crowdmax_perf")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perf/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; exits on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("crowdmax sources (src/) not found next to perf/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step), 1)


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, spec, trace):
    """Problems with the program's result against BENCHMARK.json."""
    problems = []
    expected = expected_metrics(spec, trace)
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("metric %s not printed" % name)
            continue
        value = metrics[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s has no finite value" % name)
        if metrics[name].get("unit") != unit:
            problems.append("metric %s printed with unit %r, not %r"
                            % (name, metrics[name].get("unit"), unit))
    for name in metrics:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_workload(args, spec, trace):
    """Runs one workload; returns (result, problems) or exits on a crash."""
    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%s.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        command.append("--tiny")
    if args.wrong:
        command += ["--wrong", args.wrong]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark program failed with status %d" % done.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark program printed no result", 1)
    for line in lines[:-1]:
        print(line)
    problems = validate(result, spec, trace)
    if done.returncode != 0 or not result.get("correct"):
        problems.append("an output check failed")
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--wrong", default="",
                        help="corrupt the expected value of one check")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (one of %s, or all)"
             % (args.workload, ", ".join(names)))
    build()

    workloads = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        args.workload = workload
        result, problems = run_workload(args, spec, args.trace)
        for problem in problems:
            print("PROBLEM: " + problem)
        print("context: " + json.dumps(result.get("context", {})))
        print("checks: " + json.dumps(result.get("checks", {})))
        final = {
            "correct": bool(result.get("correct")) and not problems,
            "attempted": int(result.get("attempted", 0)),
            "failed": int(result.get("failed", 0)),
            "metrics": result.get("metrics", {}),
        }
        if len(workloads) == 1:
            combined = final
        else:
            print("result %s: %s" % (workload, json.dumps(final)))
            combined["correct"] = combined["correct"] and final["correct"]
            combined["attempted"] += final["attempted"]
            combined["failed"] += final["failed"]
            combined["metrics"][workload] = final["metrics"]
    print(json.dumps(combined), flush=True)
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
