"""Numeric measurement of a local gap along the ray k = (1 + delta) k0.

For each delta on the grid the relevant eigensolver runs, the two bands
nearest the pair centre that the two-mode model predicts are picked inside
a tracking window around it (default five predicted splittings wide), and
the reported gap is the interval between the maximum of the lower band and
the minimum of the upper band, or None when the band ranges overlap.  The
pair centre and the splitting come from the problem's `pair_model`; the
bands shift by centre - c |k0| before they split.  Frequencies are
omega / c with c the host speed.

Along the ray each FD solve starts from the Ritz block of the previous
point, which saves iterations and leaves the eigenvalues unchanged within
the solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import dirichlet as dmod
from .. import lattice
from .. import transmission as tmod
from ..errors import DomainError, TrackingError
from .fd import fd_dirichlet_eigenvalues, fourier_symbol
from .pwe import _float_basis, pwe_transmission_eigenvalues


@dataclass(frozen=True)
class MeasuredGap:
    lo_over_c: float
    hi_over_c: float
    lower_band: np.ndarray
    upper_band: np.ndarray
    deltas: np.ndarray


def _auto_count(problem: str, kv, center: float, window: float, n: int, g_max: int) -> int:
    """Eigenvalues needed so everything up to the window top is computed.

    Counted from the unperturbed spectrum at the scan point (the inclusion
    only moves bands by a fraction of the window), plus a safety margin.
    """
    top = (center + 1.5 * window) ** 2
    if problem == "dirichlet":
        vals = np.sort(fourier_symbol(n, np.asarray(kv, dtype=float)).ravel())
    else:
        basis = _float_basis(g_max)
        vals = np.sort(np.sum((np.asarray(kv, dtype=float)[None, :] + basis) ** 2, axis=1))
    below = int(np.searchsorted(vals, top))
    if below > 12:
        raise TrackingError(
            f"{below} unperturbed bands below the tracking window top at "
            f"k={tuple(np.round(kv, 6))}; narrow the window or the ray"
        )
    return max(2, below + 1)


def _pick_two_bands(omegas: np.ndarray, center: float, window: float) -> tuple[float, float]:
    inside = omegas[np.abs(omegas - center) <= window]
    if len(inside) != 2:
        raise TrackingError(
            f"expected 2 bands within {window:.4g} of {center:.6g}, found "
            f"{len(inside)}: omegas={np.array2string(omegas, precision=6)}"
        )
    return float(inside[0]), float(inside[1])


def measure_gap_numeric(
    problem: str,
    k0,
    m0,
    *,
    dirichlet_params: dmod.DirichletParams | None = None,
    transmission_params: tmod.TransmissionParams | None = None,
    n: int = 32,
    g_max: int = 3,
    deltas=None,
    n_deltas: int = 7,
    window_factor: float = 5.0,
    count: int | None = None,
    tol: float = lattice.DEFAULT_TOL,
) -> MeasuredGap | None:
    """Measure the local gap of an order-two pair with the relevant oracle.

    `deltas` is the grid of relative ray offsets; by default it spans twice
    the predicted extremizer range, which brackets both branch extrema.
    """
    if problem == "dirichlet":
        if dirichlet_params is None:
            raise DomainError("dirichlet_params required")
        model = dmod.pair_model(k0, m0, dirichlet_params, tol=tol)
        c_host = 1.0
    elif problem == "transmission":
        if transmission_params is None:
            raise DomainError("transmission_params required")
        model = tmod.pair_model(k0, m0, transmission_params, tol=tol)
        c_host = transmission_params.materials.c_plus
    else:
        raise DomainError(f"unknown problem kind {problem!r}")
    k0 = np.asarray(k0, dtype=float)
    knorm = model.knorm
    split = model.s / knorm
    center = model.centre

    if deltas is None:
        m2 = sum(c * c for c in model.m0)
        # delta_tilde spans +-2 splittings; convert to relative ray offset
        dt_half = 2.0 * max(split * knorm, 1e-4)
        deltas = np.linspace(-2.0 * dt_half / m2, 2.0 * dt_half / m2, n_deltas)
    deltas = np.asarray(deltas, dtype=float)

    window = max(window_factor * split, 1e-3)
    lower = np.empty(len(deltas))
    upper = np.empty(len(deltas))
    ritz = None
    for i, d in enumerate(deltas):
        kv = (1.0 + d) * k0
        cnt = count if count is not None else _auto_count(problem, kv, center, window, n, g_max)
        if problem == "dirichlet":
            res = fd_dirichlet_eigenvalues(kv, dirichlet_params.a, n, cnt, v0=ritz)
            ritz = res.vectors
            omegas = np.sqrt(np.maximum(res.eigenvalues, 0.0))
        else:
            res = pwe_transmission_eigenvalues(kv, transmission_params, g_max, cnt)
            omegas = np.sqrt(np.maximum(res.eigenvalues, 0.0)) / c_host
        lower[i], upper[i] = _pick_two_bands(omegas, center, window)

    lo = float(lower.max())
    hi = float(upper.min())
    if lo >= hi:
        return None
    return MeasuredGap(lo, hi, lower, upper, deltas)
