#!/usr/bin/env python3
"""Remainder study: eigenvalue shift minus the capacitance asymptotics.

For self-similar grid pairs (a, n) and (a/2, 2n) the masked node pattern
is identical, so comparing the measured shift against the formula evaluated
with the exact discrete capacitance of that pattern isolates the quadratic
remainder; the printed ratios should sit near 4.

Example:
    python scripts/run_remainder_study.py --scales 0.2 0.3 0.4 --n 48
"""

import argparse
import math
import sys

import numpy as np

from bandscan.config import coerce
from bandscan.dirichlet import MAX_N, MIN_N, DirichletParams, require_scale
from bandscan.errors import ConfigError, DomainError, NumericalError
from bandscan.oracle import fd


def remainder(k, a, n):
    h = 2.0 * math.pi / n
    pattern = fd.mask_pattern(n, a)
    cap = fd.discrete_inclusion_capacitance(pattern, h)
    res = fd.fd_dirichlet_eigenvalues(k, a, n, 1)
    knorm = math.sqrt(float(np.dot(k, k)))
    shift = math.sqrt(res.eigenvalues[0]) - knorm
    # the order-one shift eps |k| of an inclusion with q a = cap
    pred = DirichletParams(a, q=cap / a).epsilon(knorm) * knorm
    return shift - pred, cap


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", default="0.2,0.1,0.15")
    ap.add_argument("--scales", nargs="+", type=float, default=[0.2, 0.3, 0.4])
    ap.add_argument("--n", type=int, default=48)
    args = ap.parse_args()

    try:
        k = np.array(coerce("k0", args.k))
    except ConfigError as exc:
        ap.error(f"--k: {exc}")
    if not MIN_N <= args.n <= MAX_N // 2:
        # each scale also solves at 2n, which the oracle would refuse only after the n solve
        ap.error(f"n: the study solves at n and 2n, so n must be >= {MIN_N} "
                 f"and <= {MAX_N // 2}, got {args.n}")
    try:
        for a in args.scales:  # every scale, before the first mask is built
            require_scale(a)
    except DomainError as exc:
        ap.error(str(exc))
    print("a      n    cap_d     remainder      ratio_vs_half")
    try:
        for a in args.scales:
            try:
                rem_a, cap_a = remainder(k, a, args.n)
                rem_h, _ = remainder(k, a / 2.0, 2 * args.n)
            except NumericalError as exc:  # e.g. too few grid cells at this a: go on
                print(f"{a:<6.3g} {args.n:<4d} oracle failure: {exc}")
                continue
            print(f"{a:<6.3g} {args.n:<4d} {cap_a:<9.5f} {rem_a:+.6e} "
                  f"{abs(rem_a) / abs(rem_h):9.2f}")
    except DomainError as exc:  # refused input, such as a scale too large for the cell
        ap.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
