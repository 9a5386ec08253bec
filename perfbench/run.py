#!/usr/bin/env python3
"""Closed-loop end-to-end benchmark of the stueckelberg CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's `src/`.  One client runs the workload's operations one after
another, each as a fresh `python -m stueckelberg.cli` process, and
repeats whole passes until the time is up.

With `--trace 0` the last stdout line holds the end-to-end metrics
(per-operation maxima and medians over the passes).  With `--trace 1` it holds the per-layer
metrics of the in-process traced run (see tracer.py).  Every run first
checks the benchmark's own failure counting with one injected failure,
and writes its full results under `perfbench/results/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEFAULT_SEED = 1
INJECT_ENV = "STUECKELBERG_INJECT_FAIL"
WORKERS_ENV = "STUECKELBERG_WORKERS"
SETUP_OP = ["--help"]
SELF_CHECK_OP = ["verify", "algebra", "--json", "--no-timing"]
SELF_CHECK_TARGET = "eta-hermitian"
OP_TIMEOUT_S = 150


@dataclass
class OpRun:
    argv: list
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env(inject=None):
    """The environment of every program process: this checkout's sources only."""
    env = {k: v for k, v in os.environ.items()
           if k not in (INJECT_ENV, WORKERS_ENV, "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    if inject:
        env[INJECT_ENV] = inject
    return env


def run_op(argv, env, stderr=subprocess.DEVNULL) -> OpRun:
    """Run one CLI process to completion; time it and read its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "stueckelberg.cli", *argv], cwd=ROOT,
                            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=stderr)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; wait4 also covers the grandchildren the
    # child reaped itself, such as the workers of its process pool.
    return OpRun(argv, proc.returncode, out, wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024)


def require_sources():
    if not (SRC / "stueckelberg" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'stueckelberg'} not found; run inside a checkout")


def self_check(env, expected, log):
    """One injected identity failure must count as exactly one failed operation."""
    res = run_op(SELF_CHECK_OP, child_env(SELF_CHECK_TARGET), log)
    failed = int(checks.check(res.argv, res.code, res.stdout, expected) is not None)
    return {"op": SELF_CHECK_OP, "inject": SELF_CHECK_TARGET, "exit_code": res.code,
            "attempted": 1, "failed": failed, "ok": failed == 1}


def measure_setup(env, log):
    """Wall time of a fresh process that imports the package and exits."""
    res = run_op(SETUP_OP, env, log)
    if res.code != 0 or b"stueckelberg" not in res.stdout:
        sys.exit(f"error: set-up process failed with exit code {res.code}")
    return res.wall_s


def run_passes(ops, env, start, seconds, expected, log):
    """Closed loop: whole passes until the next one could end after `seconds`.

    `start` is when the run began, so the self-check and the set-up
    samples count against `seconds` too, and the next pass is assumed to
    take as long as the longest so far.  One set-up sample is taken
    before each operation, so that the samples are spread evenly over the
    run: the host's speed drifts over seconds, and samples taken in
    clumps would see fewer of its states.
    """
    passes, setup = [], []
    while True:
        t0 = time.perf_counter()
        runs = []
        for argv in ops:
            setup.append(measure_setup(env, log))
            runs.append(run_op(argv, env, log))
        reasons = [checks.check(r.argv, r.code, r.stdout, expected) for r in runs]
        passes.append({
            "wall_s": sum(r.wall_s for r in runs),
            "with_setup_s": time.perf_counter() - t0,
            "cpu_s": sum(r.cpu_s for r in runs),
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "ops": [{"argv": r.argv, "exit_code": r.code, "wall_s": r.wall_s,
                     "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "failure": why}
                    for r, why in zip(runs, reasons)],
        })
        elapsed = time.perf_counter() - start
        if elapsed + max(p["with_setup_s"] for p in passes) > seconds:
            return passes, setup


def slowest_times(passes, key):
    """Sum over the operations of each operation's largest `key` over the passes.

    A composite: no single pass need have taken this time, but every term
    is a time that operation took.  A shared host can alternate between a
    normal speed and bursts up to 1.4 times faster, for seconds to minutes
    (seen on a 2-vCPU Intel Xeon virtual machine).  An operation's slowest
    run is at the normal speed unless bursts cover all of its runs, so the
    sum moves less from run to run than a median or quartile of the
    passes, which shift with the share of bursts in a run.
    """
    per_op = zip(*([op[key] for op in p["ops"]] for p in passes))
    return sum(max(samples) for samples in per_op)


def end_to_end(ops, env, start, seconds, expected, log):
    passes, setup = run_passes(ops, env, start, seconds, expected, log)
    failures = [f"{' '.join(op['argv'])}: {op['failure']}"
                for p in passes for op in p["ops"] if op["failure"]]
    attempted = sum(len(p["ops"]) for p in passes)
    metrics = {
        "wall_s": {"value": slowest_times(passes, "wall_s"), "unit": "s"},
        "cpu_s": {"value": slowest_times(passes, "cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
    }
    detail = {"setup_samples_s": setup, "passes": passes,
              "fail_ratio": len(failures) / attempted}
    return metrics, attempted, len(failures), failures, detail


def traced(workload, seed, seconds, env, log, spans_path):
    """Run tracer.py in its own process and read its last stdout line."""
    cmd = [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=log, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: traced run exited {proc.returncode}")
    out = json.loads(lines[-1])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out.pop("metrics").items()}
    return metrics, out["attempted"], out["failed"], out["failures"], out


def main():
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    require_sources()
    expected = checks.load_expected()
    ops = workloads.operations(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    with open(RESULTS / f"{tag}.stderr", "wb") as log:
        selfcheck = self_check(env, expected, log)
        if args.trace:
            left = args.seconds - (time.perf_counter() - start)
            metrics, attempted, failed, failures, detail = traced(
                args.workload, args.seed, left, env, log,
                RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
        else:
            metrics, attempted, failed, failures, detail = end_to_end(
                ops, env, start, args.seconds, expected, log)
    correct = failed == 0 and selfcheck["ok"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "operations": ops,
              "self_check": selfcheck, "failures": failures, "detail": detail,
              "result": result}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass:")
    for argv in ops:
        print("  stueckelberg " + " ".join(argv))
    print(f"self-check ({SELF_CHECK_TARGET} injected): "
          f"{selfcheck['failed']} of 1 operation counted as failed")
    print(f"attempted {attempted}, failed {failed}")
    for why in failures[:5]:
        print(f"  failure: {why}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
