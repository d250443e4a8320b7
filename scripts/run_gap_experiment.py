#!/usr/bin/env python3
"""Sweep the inclusion scale and compare predicted vs measured local gaps.

Writes gap_sweep.csv with one row per inclusion scale: the closed-form gap
edges and, when --verify is given, the finite-difference measurement.

Example:
    python scripts/run_gap_experiment.py --scales 0.2 0.3 0.4 --n 24 --verify
"""

import argparse
import csv
import sys
import time

from bandscan import dirichlet, twomode
from bandscan.config import coerce
from bandscan.errors import ConfigError, DomainError, NumericalError
from bandscan.oracle.gapscan import measure_gap_numeric


def sweep_row(a, k0, m0, args):
    """The predicted and, under --verify, the measured gap at inclusion scale a, printed."""
    p = dirichlet.DirichletParams(a=a, q=args.q)
    model = twomode.pair_model(k0, m0, p)
    _, gap = model.gap()
    row = {
        "a": a,
        "predicted_lo": gap.lo_over_c if gap else "",
        "predicted_hi": gap.hi_over_c if gap else "",
        "measured_lo": "",
        "measured_hi": "",
        "seconds": "",
    }
    failure = ""
    if args.verify and gap is not None:
        t0 = time.time()
        try:
            got = measure_gap_numeric(model, p, n=args.n)
        except NumericalError as exc:  # e.g. too few grid cells at this a: go on
            got, failure = None, f" oracle failure: {exc}"
        row["seconds"] = f"{time.time() - t0:.1f}"
        if got is not None:
            row["measured_lo"] = got.lo_over_c
            row["measured_hi"] = got.hi_over_c
    print(f"a={a}: predicted=({row['predicted_lo']}, {row['predicted_hi']}) "
          f"measured=({row['measured_lo']}, {row['measured_hi']}){failure}")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k0", default="0,0,0.5")
    ap.add_argument("--m0", default="0,0,1")
    ap.add_argument("--scales", nargs="+", type=float, default=[0.1, 0.2, 0.3, 0.4])
    ap.add_argument("--q", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=24, help="FD grid per axis")
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--out", default="gap_sweep.csv")
    args = ap.parse_args()

    rows = []
    try:
        k0, m0 = coerce("k0", args.k0), coerce("m0", args.m0)
        for a in args.scales:
            rows.append(sweep_row(a, k0, m0, args))
    except (ConfigError, DomainError) as exc:  # refused input, such as a q the oracle cannot mask
        ap.error(str(exc))

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
