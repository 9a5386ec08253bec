#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, written to baseline.json.

    python3 perfbench/spread.py

Runs the benchmark command of BENCHMARK.json on every workload, once per
seed, in two sets of ten seeds (101-110, then 201-210), with `--trace 0`
and `run_seconds` from BENCHMARK.json.  For each set, workload and
metric it records the median, the quartiles of
`statistics.quantiles(values, n=4)`, their distance as a share of the
median (the spread), and the sample count.  The second set goes under
`repeat`, with each median's change against the first set.  A metric is
steady when its spread is below a third of its bound.  baseline.json is
rewritten whole, so both sets always come from the same code.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
RUNS = 10
FIRST_SEEDS = (101, 201)


def one_run(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.PIPE, timeout=400)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def measure_set(manifest, first_seed, bounds):
    """Ten runs per workload; per workload and metric, the summary of the runs."""
    seeds = list(range(first_seed, first_seed + RUNS))
    out = {}
    for w in manifest["workloads"]:
        workload = w["name"]
        results = [one_run(manifest["command"], workload, s, manifest["run_seconds"])
                   for s in seeds]
        metrics = {}
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            stats["steady"] = stats["spread"] < bound / 3
            metrics[name] = stats
            print(f"seeds {first_seed}+ {workload:14s} {name:12s} "
                  f"median {stats['median']:.4f} spread {stats['spread']:.4f} "
                  f"bound {bound} {'steady' if stats['steady'] else 'NOT steady'}",
                  flush=True)
        out[workload] = {
            "seeds": seeds, "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_elapsed_s": max(r["elapsed_s"] for r in results), "metrics": metrics}
    return out


def main():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    first = measure_set(manifest, FIRST_SEEDS[0], bounds)
    repeat = measure_set(manifest, FIRST_SEEDS[1], bounds)
    for workload, entry in repeat.items():
        for name, stats in entry["metrics"].items():
            first_median = first[workload]["metrics"][name]["median"]
            stats["change"] = stats["median"] / first_median - 1
            stats["within_bound"] = stats["change"] <= stats["bound"]
    sets = (first, repeat)
    band = {}
    for name, bound in bounds.items():
        largest = max(s[w]["metrics"][name]["spread"] for s in sets for w in s)
        band[name] = {"band": largest, "bound": bound, "bound_over_band": bound / largest}
    base = {
        "workloads": first,
        "repeat": {"note": (f"a second set of {RUNS} runs per workload of the same code, "
                            f"made right after the first; change = repeat median / "
                            f"first median - 1, within_bound = change <= bound"),
                   "workloads": repeat},
        "environment": environment(),
        "run_seconds": manifest["run_seconds"],
        "band_rule": ("band: the largest spread (quartile distance / median over the "
                      "seeds) of the metric on any workload in either set; a bound is "
                      "meant to be at least three times its band, and setup_s has the "
                      "largest bound"),
        "band": band,
    }
    BASELINE.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    main()
