#!/usr/bin/env python3
"""Quick self-check of the benchmark: each workload at its smallest size.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For every workload it runs run.py --quick
with --trace 0 and --trace 1 and checks that every metric BENCHMARK.json
names is printed with its unit, that the six end-to-end metrics appear in
the readable block, and that no request failed.  Exits 1 on the first
problem.  Takes about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PRINTED = ("setup_s", "requests_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb", "failed_frac")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                stdout=subprocess.PIPE, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} requests failed")
            if trace == 0:
                shown = {line.split()[0] for line in lines[:-1] if line.strip()}
                missing = [m for m in PRINTED if m not in shown]
                if missing:
                    problems.append(f"{where}: readable block lacks {missing}")
                frac = next(line for line in lines if line.startswith("failed_frac"))
                if float(frac.split()[1]) != 0.0:
                    problems.append(f"{where}: {frac}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} requests, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
