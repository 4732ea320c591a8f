#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: every workload at a tiny
budget, untraced and traced, from the root of a pabp source tree:

    python3 perfbench/selftest.py

Asserts that each run is correct with no failed cell, that it prints
exactly the metrics BENCHMARK.json names for its mode, each with its
declared unit, and that each layer's spans appear on exactly the
workloads where that layer runs. At seed 42 the tiny-budget cell
digests in perfbench/digests.json are checked as well.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = "20000"

# Where each layer runs; on every other workload its spans must be
# absent (characterize, for one, is off everywhere else).
LAYER_WORKLOADS = {
    "compile": {"suite-grid", "cold-seeds", "timed", "characterize"},
    "record": {"suite-grid", "cold-seeds", "characterize"},
    "decode": {"suite-grid", "cold-seeds", "characterize"},
    "characterize": {"characterize"},
    "replay": {"suite-grid", "cold-seeds", "characterize"},
    "multictx": {"cold-seeds"},
    "pipeline": {"timed"},
    "export": {"suite-grid", "cold-seeds", "timed", "characterize"},
}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "42", "--seconds", "0.5", "--steps", STEPS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            before = len(errors)
            result, log = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                errors.append(tag + ": wrong result keys")
            if not result["correct"] or result["failed"] != 0:
                errors.append(tag + ": not correct\n" + log)
            if result["attempted"] < 1:
                errors.append(tag + ": nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                errors.append("%s: metrics/units differ from "
                              "BENCHMARK.json: %s" % (
                                  tag, sorted(set(got.items()) ^
                                              set(declared[trace].items()))))
            if trace:
                for layer, where in LAYER_WORKLOADS.items():
                    samples = result["metrics"][layer + ".samples"]
                    if (samples["value"] > 0) != (workload in where):
                        errors.append("%s: layer %s has %d samples" % (
                            tag, layer, samples["value"]))
            print("ok  " if len(errors) == before else "FAIL", tag,
                  flush=True)
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
