#!/usr/bin/env python3
"""End-to-end sweep benchmark for pabp (see perfbench/README.md).

    python3 perfbench/run.py --workload suite-grid --seed 1 --seconds 20 --trace 0

Run from the root of a pabp source tree. The first call configures and
builds perfbench/ (which pulls the repository in) under .bench_build/.

--trace 0 spawns the driver once per grid, each time a fresh process
with cold caches, until --seconds are spent (at least three grids),
and reports the medians of the end-to-end metrics. --trace 1 runs the
driver's traced mode once and reports the per-layer metrics derived
from its spans. Either way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a readable table goes
to stderr.

Correctness: every cell must run Ok and keep SFPF's 100%-accuracy
invariant; at the default seed every cell's metrics bytes must hash to
the digest in perfbench/digests.json; cache counts, simulated totals
and cell digests must repeat exactly across the grids of one run; in
traced mode every traced cell must reproduce the runner's results.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "pabp_e2e_driver")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ("suite-grid", "cold-seeds", "timed", "characterize")
DIGEST_SEED = 42
MIN_GRIDS = 3
# Extra set-up-only spawns per run, so setup_s is a median of many
# samples even when a grid takes seconds.
SETUP_SPAWNS = 12
DRIVER_TIMEOUT_S = 170

# Layer spans the driver records, in pipeline order.
LAYERS = ("compile", "record", "decode", "characterize", "replay",
          "multictx", "pipeline", "export")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no pabp source tree at " + ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "pabp_e2e_driver", "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, timeout=880)


def run_driver(args):
    """Run the driver; return (its JSON line, monotonic spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.run([DRIVER] + args, capture_output=True,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver %s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing: " + proc.stderr)
    return json.loads(lines[-1]), spawned


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def pinned(workload, seed, steps):
    """The checked-in exact results for this run, or None."""
    if seed != DIGEST_SEED:
        return None
    return load_digests().get(workload, {}).get(str(steps))


def exact_part(line):
    """What must repeat bit for bit between grids of one workload."""
    return {"cells": line["cell_digest"], "sweep": line["sweep"],
            "sim": line["sim"]}


def check_line(line, pin, problems):
    """Count failed cells of one driver line; note every problem."""
    bad = set(i for i, ok in enumerate(line["cell_ok"]) if not ok)
    problems.extend(line["failures"])
    if pin is not None:
        for i, (got, want) in enumerate(zip(line["cell_digest"],
                                            pin["cells"])):
            if got != want:
                bad.add(i)
                problems.append("cell %d metrics digest %s != pinned %s"
                                % (i, got, want))
        if len(line["cell_digest"]) != len(pin["cells"]):
            problems.append("grid has %d cells, pinned %d" % (
                len(line["cell_digest"]), len(pin["cells"])))
        for key in ("sweep", "sim"):
            if line[key] != pin[key]:
                problems.append("%s %s != pinned %s" % (
                    key, line[key], pin[key]))
    return len(bad)


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds(args, mode):
    line, spawned = run_driver([
        "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--steps", str(args.steps)])
    return line, line["submit_mono"] - spawned


def run_grids(args):
    deadline = time.monotonic() + args.seconds
    setups = [setup_seconds(args, "setup")[1]
              for _ in range(SETUP_SPAWNS)]
    lines = []
    while len(lines) < MIN_GRIDS or time.monotonic() < deadline:
        line, setup = setup_seconds(args, "grid")
        setups.append(setup)
        lines.append(line)

    problems = []
    pin = pinned(args.workload, args.seed, args.steps)
    failed = sum(check_line(line, pin, problems) for line in lines)
    attempted = sum(line["cells"] for line in lines)
    first = exact_part(lines[0])
    for n, line in enumerate(lines[1:], 1):
        if exact_part(line) != first:
            problems.append("grid %d: cache counts, simulated totals or "
                            "cell digests differ from grid 0" % n)
    if args.write_digests:
        write_digest(args, first)

    med = lambda key: statistics.median(line[key] for line in lines)
    sim = lines[0]["sim"]
    metrics = {
        "wall_s": metric(med("wall_s"), "s"),
        "sim_minsts_per_s": metric(statistics.median(
            l["sim"]["insts"] / l["wall_s"] / 1e6 for l in lines),
            "Minst/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "cells_ok_frac": metric((attempted - failed) / attempted,
                                "fraction"),
        "sim_mpki": metric(sim["mpki"], "mispred/kinst"),
    }
    log("%d grids of %d cells; cells_failed_frac %.6g" % (
        len(lines), lines[0]["cells"], failed / attempted))
    return metrics, attempted, failed, problems


def write_digest(args, exact):
    if args.seed != DIGEST_SEED:
        raise BenchError("digests are pinned at seed %d" % DIGEST_SEED)
    data = load_digests()
    data.setdefault(args.workload, {})[str(args.steps)] = exact
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def read_spans(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    spans = []
    for r in rows:
        spans.append({"id": int(r["id"]), "parent": int(r["parent"]),
                      "pass": int(r["pass"]), "cell": int(r["cell"]),
                      "name": r["name"], "start": int(r["start_ns"]),
                      "end": int(r["end_ns"]), "work": int(r["work"])})
    return spans


def add_self_times(spans):
    """Self time = duration minus the union of the child spans."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    for s in spans:
        covered, reach = 0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        s["self_s"] = (s["end"] - s["start"] - covered) / 1e9


def tail(values):
    """(median, highest percentile with >= 10 samples beyond it, that
    percentile) of @values, nearest-rank."""
    if not values:
        return 0.0, 0.0, 0
    xs = sorted(values)
    n = len(xs)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return statistics.median(xs), xs[rank - 1], pct


def layer_metrics(spans, passes, traced_wall_s, decoded_mb):
    m = {}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    for layer in LAYERS:
        group = by_name.get(layer, [])
        per_pass = [0.0] * passes
        for s in group:
            per_pass[s["pass"]] += s["self_s"]
        p50, tail_s, pct = tail([s["self_s"] for s in group])
        busy = sum(s["self_s"] for s in group)
        work = sum(s["work"] for s in group)
        m[layer + ".busy_s"] = metric(statistics.median(per_pass), "s")
        m[layer + ".p50_ms"] = metric(p50 * 1e3, "ms")
        m[layer + ".tail_ms"] = metric(tail_s * 1e3, "ms")
        m[layer + ".tail_pct"] = metric(pct, "percentile")
        m[layer + ".samples"] = metric(len(group), "count")
        rate = ratio(work, busy) / 1e6
        if layer == "compile":
            m["compile.calls"] = metric(len(group) // passes, "count")
        elif layer == "record":
            m["record.minsts_per_s"] = metric(rate, "Minst/s")
        elif layer == "decode":
            m["decode.mevents_per_s"] = metric(rate, "Mevent/s")
            m["decode.trace_mb"] = metric(decoded_mb, "MB")
        elif layer == "characterize":
            m["characterize.max_s"] = metric(
                max([s["self_s"] for s in group], default=0.0), "s")
        elif layer in ("replay", "multictx"):
            m[layer + ".mevents_per_s"] = metric(rate, "Mevent/s")
        elif layer == "pipeline":
            m["pipeline.minsts_per_s"] = metric(rate, "Minst/s")
        elif layer == "export":
            m["export.kb"] = metric(work / passes / 1e3, "kB")

    # First +both pass over a trace (cold schedule cache) against its
    # immediate repeat (warm), per trace.
    cold = {(s["pass"], s["cell"]): s["self_s"]
            for s in by_name.get("replay", [])}
    ratios = [cold[(s["pass"], s["cell"])] / s["self_s"]
              for s in by_name.get("replay_repeat", []) if s["self_s"] > 0]
    m["replay.both_cold_over_warm"] = metric(
        statistics.median(ratios) if ratios else 0.0, "ratio")

    layered = sum(s["self_s"] for s in spans if s["name"] != "cell")
    m["trace.coverage"] = metric(ratio(layered, traced_wall_s), "fraction")
    m["trace.passes"] = metric(passes, "count")
    return m


def run_traced(args):
    spans_path = os.path.join(BUILD_DIR, "spans-%s-%d.csv" % (
        args.workload, args.seed))
    line, _ = run_driver([
        "--mode", "traced", "--workload", args.workload,
        "--seed", str(args.seed), "--steps", str(args.steps),
        "--seconds", str(args.seconds), "--spans", spans_path])
    problems = []
    failed = check_line(line, pinned(args.workload, args.seed,
                                     args.steps), problems)
    failed += line["traced_failed"]
    passes = line["passes"]
    attempted = line["cells"] * (1 + passes)

    spans = read_spans(spans_path)
    add_self_times(spans)
    m = layer_metrics(spans, passes, line["traced_wall_s"],
                      line["decoded_mb"])

    sweep, sim, jobs = line["sweep"], line["sim"], line["jobs"]
    capacity = line["wall_s"] * jobs
    m["sweep.cpu_busy_frac"] = metric(line["cpu_s"] / capacity, "fraction")
    m["sweep.wait_s"] = metric(max(0.0, capacity - line["cpu_s"]), "s")
    m["sweep.compiles"] = metric(sweep["compiles"], "count")
    m["sweep.compile_hits"] = metric(sweep["compile_hits"], "count")
    m["sweep.records"] = metric(sweep["records"], "count")
    m["sweep.trace_hits"] = metric(sweep["trace_hits"], "count")
    requests = sweep["records"] + sweep["trace_hits"]
    m["sweep.trace_hit_ratio"] = metric(
        sweep["trace_hits"] / requests if requests else 0.0, "fraction")
    m["engine.sfpf_squash_frac"] = metric(sim["sfpf_squash_frac"],
                                          "fraction")
    m["engine.pgu_bits"] = metric(sim["pgu_bits"], "count")
    m["pipeline.ipc"] = metric(sim["ipc"], "inst/cycle")
    m["pipeline.mispredict_stall_frac"] = metric(
        sim["mispredict_stall_frac"], "fraction")
    m["pipeline.icache_mpki"] = metric(sim["icache_mpki"], "miss/kinst")
    log("%d traced passes over %d cells, spans in %s" % (
        passes, line["cells"], spans_path))
    return m, attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=0,
                    help="per-cell budget override (0 = the "
                    "workload's own; the self-test uses a tiny one)")
    ap.add_argument("--write-digests", action="store_true",
                    help="pin this run's exact results in digests.json "
                    "(seed %d only)" % DIGEST_SEED)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        if args.trace:
            metrics, attempted, failed, problems = run_traced(args)
        else:
            metrics, attempted, failed, problems = run_grids(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 1

    for p in problems:
        log("CHECK FAILED: " + p)
    for name in sorted(metrics):
        log("%-34s %14.6g %s" % (name, metrics[name]["value"],
                                 metrics[name]["unit"]))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
