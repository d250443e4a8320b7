"""One benchmark workload in one process: a closed loop with one client.

Started by run.py with the thread variables pinned; it refuses to run
without them.  Requests are bandscan CLI argv lists run in-process through
``bandscan.cli.main``; each is timed alone and checked after its timer
stops.  Prints one JSON line with the results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--quick]
    python3 perfbench/worker.py --workload NAME --probe
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

THREAD_VARS = ("BANDSCAN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: Rough seconds per round, to generate enough rounds up front.
ROUND_SECONDS = {"predict": 0.8, "verify-dirichlet": 8.0, "verify-transmission": 2.0, "shapes": 2.0}


def require_pinned_threads() -> None:
    """Exit unless the thread variables are pinned to one count of at most nproc."""
    values = {v: os.environ.get(v, "") for v in THREAD_VARS}
    if len(set(values.values())) != 1 or not values[THREAD_VARS[0]].isdigit():
        sys.exit(f"thread variables not pinned to one count: {values}")
    count = int(values[THREAD_VARS[0]])
    if not 1 <= count <= (os.cpu_count() or 1):
        sys.exit(f"thread count {count} outside 1..nproc")


def import_bandscan(root: str):
    """Import bandscan.cli from the checkout's src/ and time it."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import bandscan.cli as cli

    import_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"bandscan imported from {cli.__file__}, not from {src}")
    return cli, import_s


def call(cli, argv):
    """One request: (exit code, or None on an escaped exception; stdout; stderr; seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)  # looked up per call, so tracing wraps it
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def run_loop(cli, rounds, seconds, tracer=None):
    """Run whole rounds until the next one would pass `seconds` of request time.

    Returns per-request latencies, failure reasons and defect counts.
    """
    latencies, failures, defects = [], [], Counter()
    spent = 0.0
    done = 0
    for rnd in rounds:
        if done and spent + spent / done > seconds:
            break
        for req in rnd:
            if tracer is not None:
                tracer.request += 1
                tracer.active = True
            rc, out, err, dt = call(cli, req.argv)
            if tracer is not None:
                tracer.active = False
            latencies.append(dt)
            spent += dt
            try:
                reason = req.check(rc, out, err, defects)
            except Exception as exc:  # a malformed output is a failed request
                reason = f"output check raised {exc!r}"
            if reason:
                failures.append(f"{req.kind}: {reason}")
        done += 1
    return latencies, failures, defects, done


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{v: os.environ[v] for v in THREAD_VARS},
    }


def probe(cli, import_s, workload) -> dict:
    """Set-up cost of one fresh interpreter: import plus the first request's excess."""
    argv = workload.probe()
    rc, _, err, first = call(cli, argv)
    rc2, _, _, warm = call(cli, argv)
    if rc != 0 or rc2 != 0:
        sys.exit(f"probe request {argv} failed: {err.strip()[-300:]}")
    return {"import_s": import_s, "first_s": first, "warm_s": warm}


def measure(cli, workload, seconds, trace, spans_path) -> dict:
    n_rounds = max(2, math.ceil(2 * seconds / ROUND_SECONDS[workload.name]) + 1)
    rounds = workload.rounds(n_rounds)  # every request is generated before timing starts
    call(cli, workload.probe())  # warm-up: set-up cost is measured apart, in fresh processes
    if not trace:
        lat, failures, defects, done = run_loop(cli, rounds, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"latencies": lat, "rounds": done, "peak_rss_mb": peak_rss_mb}
    else:
        from tracer import Tracer
        import bandscan

        tracer = Tracer()
        tracer.install(bandscan)
        lat, t_lat, failures, defects, done = [], [], [], Counter(), 0
        # each round untraced and traced, in alternating order: the difference
        # of the two request times is the tracing overhead
        for i, rnd in enumerate(rounds):
            if done and sum(lat) * (done + 1) / done > seconds / 2:
                break
            for use in (False, True) if i % 2 == 0 else (True, False):
                if use:
                    tracer.enable()
                try:
                    got, fail, dfx, _ = run_loop(cli, [rnd], math.inf, tracer if use else None)
                finally:
                    tracer.disable()
                (t_lat if use else lat).extend(got)
                failures += fail
                defects += dfx
            done += 1
        result = {
            "latencies": lat,
            "rounds": done,
            "layers": tracer.layer_metrics(len(t_lat)),
            "traced_s": sum(t_lat),
            "untraced_s": sum(lat),
            "spans": len(tracer.name),
        }
        if spans_path:
            tracer.save(spans_path)
    result.update(failures=failures, defects=dict(defects))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true", help="each workload at its smallest size")
    ap.add_argument("--probe", action="store_true", help="time set-up in this fresh process")
    ap.add_argument("--spans", help="where --trace writes the spans (.npz)")
    args = ap.parse_args(argv)

    require_pinned_threads()
    root = os.getcwd()
    cli, import_s = import_bandscan(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.quick)
        if args.probe:
            result = probe(cli, import_s, wl)
        else:
            result = measure(cli, wl, args.seconds, args.trace, args.spans)
            result["import_s"] = import_s
            result["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
