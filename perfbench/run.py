#!/usr/bin/env python3
"""bandscan benchmark: four closed-loop CLI workloads with pinned threads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--quick]

Run it from the root of a checkout; it imports bandscan from ./src.  Each
workload runs in its own process (perfbench/worker.py) with
BANDSCAN_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS pinned to one
count, as a closed loop with one client.  The set-up time is measured
apart, in fresh interpreters (perfbench/worker.py --probe).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run of the same requests (spans are written to .perfbench_out/).
For each workload a readable block is printed, then one JSON line
{"correct", "attempted", "failed", "metrics"}; with one workload that line
is the last line of the output.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("predict", "verify-dirichlet", "verify-transmission", "shapes")
THREAD_VARS = ("BANDSCAN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: One thread: the steadiest timing on a shared machine, and at most nproc anywhere.
THREADS = 1
#: Fresh interpreters per run for the set-up time; the median is reported.
SETUP_REPEATS = 3
#: Seconds a worker may take before it is stopped (the whole run must end within 180 s).
WORKER_TIMEOUT = 170


class BenchError(Exception):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p99(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank 99th percentile and the number of samples beyond it."""
    rank = math.ceil(0.99 * len(latencies))
    return sorted(latencies)[rank - 1], len(latencies) - rank


def end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> tuple[dict, list[str]]:
    base = ["--workload", workload]
    setups = [run_worker(base + ["--probe"], 60) for _ in range(SETUP_REPEATS)]
    setup = [s["import_s"] + s["first_s"] - s["warm_s"] for s in setups]
    res = run_worker(base + ["--seed", str(seed), "--seconds", str(seconds)]
                     + (["--quick"] if quick else []), WORKER_TIMEOUT)
    lat = res["latencies"]
    n, failed = len(lat), len(res["failures"])
    busy = sum(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": ((n - failed) / busy, "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters: import "
                   f"{statistics.median(s['import_s'] for s in setups):.3f} s + first-request excess "
                   f"{statistics.median(s['first_s'] - s['warm_s'] for s in setups):.3f} s",
        "requests_per_s": f"{n - failed} completed requests in {busy:.2f} s of request time, "
                          f"{res['rounds']} rounds",
        "latency_p50_ms": f"{n} samples",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    lines = [f"{name:<16}{value:>14.6g} {unit:<6} {notes[name]}" for name, (value, unit) in metrics.items()]
    if workload == "predict":
        value, beyond = p99(lat)
        lines.append(f"{'latency_p99_ms':<16}{1000.0 * value:>14.6g} {'ms':<6} {n} samples, {beyond} beyond")
    else:
        lines.append(f"{'latency_p99_ms':<16}{'n/a':>14} {'ms':<6} predict only: {n} samples here, "
                     "too few for ten beyond the 99th percentile")
    lines.append(f"{'failed_frac':<16}{failed / n:>14.6g} {'1':<6} {failed} of {n} requests")
    return _result(res, n, metrics), lines + _context(res)


def traced(workload: str, seed: int, seconds: float, quick: bool) -> tuple[dict, list[str]]:
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    res = run_worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "--spans", spans] + (["--quick"] if quick else []), WORKER_TIMEOUT)
    n = len(res["latencies"])
    overhead = res["traced_s"] - res["untraced_s"]
    metrics = {"cli.import_s": (res["import_s"], "s"),
               **{k: tuple(v) for k, v in res["layers"].items()},
               "trace.overhead_s": (overhead, "s")}
    lines = [f"{name:<36}{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"tracing overhead: {overhead:.3f} s on {res['untraced_s']:.3f} s untraced "
                 f"({100.0 * overhead / res['untraced_s']:.1f}%), {n} requests, "
                 f"{res['spans']} spans written to {os.path.relpath(spans)}")
    return _result(res, n, metrics), lines + _context(res)


def _context(res: dict) -> list[str]:
    """Environment, tolerated defects, and the first failures (also on stderr)."""
    for reason in res["failures"][:10]:
        print(f"failed: {reason}", file=sys.stderr)
    lines = [f"environment {json.dumps(res['environment'])}"]
    if res["defects"]:
        lines.append(f"known defects seen {json.dumps(res['defects'])}")
    return lines + [f"failed: {reason}" for reason in res["failures"][:10]]


def _result(res: dict, n: int, metrics: dict) -> dict:
    return {
        "correct": not res["failures"],
        "attempted": n,
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bandscan closed-loop CLI benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0, help="request time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="each workload at its smallest size")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bandscan", "cli.py")):
        print("error: run from the root of a bandscan checkout (src/bandscan/cli.py not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced if args.trace else end_to_end
    for name in names:
        try:
            result, lines = run(name, args.seed, args.seconds, args.quick)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"== {name}: seed {args.seed}, {args.seconds:g} s, {THREADS} thread(s), "
              f"trace {args.trace}")
        print("\n".join(lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
