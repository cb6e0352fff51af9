#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Builds the program like run.py, then runs every workload of BENCHMARK.json
with --tiny and checks that
  * an untraced run prints every end_to_end metric, and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives it, and that
    the result line has exactly the keys the benchmark contract names;
  * a clean run passes the correctness gate;
  * with --corrupt (one output deliberately damaged) the correctness gate
    counts exactly one more failed operation and reports correct=false.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def result(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
           "1", "--trace", str(trace), "--tiny"] + list(extra)
    out = subprocess.run(cmd, env=run.clean_env(), capture_output=True,
                         text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(workload, res, expected):
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(res))
    if res["attempted"] < 1:
        problems.append("attempted %s" % res["attempted"])
    got = res["metrics"]
    for m in expected:
        if m["name"] not in got:
            problems.append("missing %s" % m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s unit %s, want %s" % (
                m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return ["%s: %s" % (workload, p) for p in problems]


def main():
    if not run.build():
        print("selftest: build failed")
        return 1
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        clean = result(name, 0)
        if not clean["correct"] or clean["failed"]:
            problems.append("%s: clean run failed %d operation(s)" % (
                name, clean["failed"]))
        problems += check_metrics(name, clean, SPEC["end_to_end"])
        problems += check_metrics(name, result(name, 1), SPEC["per_layer"])
        bad = result(name, 0, "--corrupt")
        if bad["failed"] != clean["failed"] + 1 or bad["correct"]:
            problems.append("%s: corrupted output counted %d failed "
                            "(clean run %d), correct=%s" % (
                                name, bad["failed"], clean["failed"],
                                bad["correct"]))
        print("selftest: %s checked" % name)
    for p in problems:
        print("selftest: FAIL %s" % p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" %
                            len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
