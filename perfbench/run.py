#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload rfast64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

A single workload runs in one process, and its last line of standard
output is the result object.  `--workload all` runs rfast64, recover8 and
churn16 one after another, each in its own process, prints every
metric by name with its unit, and ends with one object for the three.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "src", "main.exe")
WORKLOADS = ["rfast64", "recover8", "churn16"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: no dune-project or lib/ here")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/src/main.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")


def run_all(args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [EXE, "--workload", name] + args, stdout=subprocess.PIPE, text=True
        )
        if done.returncode != 0:
            sys.exit(done.returncode)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print("== %s: %s" % (name, lines[0]))
        for metric, m in result["metrics"].items():
            print("%-10s %-34s %16.4f %s" % (name, metric, m["value"], m["unit"]))
        print("%-10s attempted %d, failed %d, correct %s"
              % (name, result["attempted"], result["failed"], result["correct"]))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][name + "." + metric] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    args = sys.argv[1:]
    workload = None
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args):
            workload = args[i + 1]
    build()
    if workload == "all":
        rest = args[:i] + args[i + 2:]
        return run_all(rest)
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
