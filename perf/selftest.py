#!/usr/bin/env python3
"""Tiny-size self-test of the end-to-end benchmark.

    python3 perf/selftest.py

Checks that BENCHMARK.json keeps its format rules, that every
workload prints every metric of BENCHMARK.json with its unit (tracing off
and on), that every output check fires when its expected value is
deliberately wrong, and that the benchmark refuses to run without the
library sources. Uses tiny inputs; exits nonzero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perf/run.py: build() and validate())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The checks each workload evaluates, and the trace mode that evaluates it.
CHECKS = {
    "alg1_memo": {"theorem1_bound": 0, "lemma3_naive_budget": 0,
                  "lemma3_candidates": 0, "query_completes": 0,
                  "deterministic_repeat": 0, "traced_matches_untraced": 1},
    "service_burst": {"theorem1_bound": 0, "lemma3_naive_budget": 0,
                      "query_completes": 0, "deterministic_repeat": 0,
                      "rejection_slice_typed": 0,
                      "traced_matches_untraced": 1,
                      "execute_alone_matches_run": 1, "service_audit": 1},
    "service_crowd": {"rejection_slice_typed": 0, "deterministic_repeat": 0,
                      "traced_matches_untraced": 1,
                      "execute_alone_matches_run": 1, "service_audit": 1},
}
CHECKS["alg1_batched"] = dict(CHECKS["alg1_memo"])


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def check_format(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(spec["command"][:2] == ["python3", "perf/run.py"], "command")
    expect(spec["paths"] == ["perf"], "paths")
    expect(isinstance(spec["run_seconds"], int)
           and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"}, "workload keys")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], "why length")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, "e2e keys")
        expect(0 < m["bound"] <= 0.25, "bound of " + m["name"])
        names.append(m["name"])
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, "per-layer keys")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, "unit of " + m["name"])
        expect(m["better"] in ("lower", "higher"), "better of " + m["name"])
    expect(all(NAME.match(n) for n in names), "name syntax")
    expect(len(names) == len(set(names)), "names used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower", "setup_s declared")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")


def run_tiny(workload, trace, wrong=""):
    command = [sys.executable, os.path.join(PERF_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--tiny"]
    if wrong:
        command += ["--wrong", wrong]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    expect(lines, "%s printed nothing: %s" % (workload, done.stderr))
    checks = {}
    for line in lines:
        if line.startswith("checks: "):
            checks = json.loads(line[len("checks: "):])
    return done.returncode, json.loads(lines[-1]), checks


def check_bare_directory(spec):
    """The benchmark must refuse to run next to nothing but itself."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(PERF_DIR, os.path.join(bare, "perf"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(spec["command"] + [
        "--workload", spec["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "bare directory run exited 0")
    expect(not done.stdout.strip(), "bare directory run printed a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_format(spec)
    check_bare_directory(spec)
    run.build()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, _ = run_tiny(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, "result keys")
            problems = run.validate(result, spec, trace)
            expect(not problems, "%s trace=%d: %s"
                   % (workload, trace, "; ".join(problems)))
            expect(code == 0 and result["correct"],
                   "%s trace=%d not correct" % (workload, trace))
        for check, trace in CHECKS[workload].items():
            code, result, checks = run_tiny(workload, trace, wrong=check)
            fired = checks.get(check, {}).get("failed", 0) > 0
            expect(code != 0 and not result["correct"] and fired,
                   "%s: check %s did not fire" % (workload, check))
        print("ok  %s: every metric printed with its unit; %d checks fire"
              % (workload, len(CHECKS[workload])))
    print("selftest: OK")


if __name__ == "__main__":
    main()
