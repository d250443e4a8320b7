"""Numeric measurement of a local gap along the ray k = (1 + delta) k0.

`measure_gap_numeric(model)` measures the pair of a two-mode model with the
oracle that the type of the model's params names: DirichletParams runs the
finite-difference oracle on an n^3 grid, TransmissionParams the plane-wave
oracle with |g_i| <= g_max.  At each delta the oracle computes every band of
the spectrum without the inclusion below the tracking window top, plus one
for PWE only (`_auto_count`); the count is not a parameter.  Each oracle
solves only the sector symmetric under the signed permutations R with
R k0 = k0, which holds the pair (`lattice.stabiliser`), and gives that
sector's spectrum without the inclusion, so both the count and the bands
come from that sector.  The two bands nearest the model's pair centre are
picked inside the window (default five predicted splittings wide).  The
reported gap is the interval between the maximum of the lower band and the
minimum of the upper band, or None when the band ranges overlap.  Frequencies are omega / c with c the host speed.

Along the ray each FD solve starts from the Ritz block of the previous
point, which saves iterations and leaves the eigenvalues unchanged within
the solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dirichlet import DirichletParams
from ..errors import DomainError, TrackingError
from ..twomode import TwoModeModel
from .fd import fd_dirichlet_eigenvalues, fourier_symbol
from .pwe import free_spectrum, pwe_transmission_eigenvalues


@dataclass(frozen=True)
class MeasuredGap:
    lo_over_c: float
    hi_over_c: float
    lower_band: np.ndarray
    upper_band: np.ndarray
    deltas: np.ndarray


def _oracle(params, n: int, g_max: int):
    """(unperturbed, solve, host speed, count margin) of the problem `params` names.

    `unperturbed(kv)` is the spectrum without the inclusion of the sector
    solved at kv, and
    `solve(kv, count, v0)` the oracle's EigResult; the FD solve starts from
    the Ritz block v0.  The margin is `_auto_count`'s.
    """
    if isinstance(params, DirichletParams):
        if params.q != 1.0:
            raise DomainError(f"q: the finite-difference oracle masks a sphere (q = 1), "
                              f"so it cannot check q = {params.q}")
        return (lambda kv: fourier_symbol(n, kv),
                lambda kv, count, v0: fd_dirichlet_eigenvalues(kv, params.a, n, count, v0=v0),
                1.0, 0)
    return (lambda kv: free_spectrum(kv, g_max),
            lambda kv, count, v0: pwe_transmission_eigenvalues(kv, params, g_max, count),
            params.materials.c_plus, 1)


def _auto_count(unperturbed: np.ndarray, kv, center: float, window: float, margin: int) -> int:
    """Eigenvalues needed so everything up to the window top is computed.

    `below` counts the unperturbed values under the top.  The masked FD operator
    is a principal submatrix of the periodic one, so by Cauchy interlacing (Horn
    & Johnson, Matrix Analysis, 2nd ed., Thm 4.3.28) its j-th eigenvalue is >=
    sigma_j, the j-th symbol value: none past `below` lies under the top (margin
    0).  Contrast moves PWE eigenvalues both ways, so the PWE margin is 1.
    """
    top = (center + 1.5 * window) ** 2
    below = int(np.count_nonzero(unperturbed < top))
    if below > 12:
        raise TrackingError(
            f"{below} unperturbed bands below the tracking window top at "
            f"k={tuple(np.round(kv, 6).tolist())}; narrow the window or the ray"
        )
    return max(2, below + margin)


def _pick_two_bands(omegas: np.ndarray, center: float, window: float) -> tuple[float, float]:
    inside = omegas[np.abs(omegas - center) <= window]
    if len(inside) != 2:
        raise TrackingError(
            f"expected 2 bands within {window:.4g} of {center:.6g}, found "
            f"{len(inside)}: omegas={np.array2string(omegas, precision=6)}"
        )
    return float(inside[0]), float(inside[1])


def measure_gap_numeric(
    model: TwoModeModel,
    *,
    n: int = 32,
    g_max: int = 3,
    deltas=None,
    n_deltas: int = 7,
    window_factor: float = 5.0,
) -> MeasuredGap | None:
    """Measure the local gap of `model`'s pair with the oracle its params name.

    The FD oracle masks the sphere of q = 1, so a model whose DirichletParams
    have any other q is refused, naming `q`, before any solve.  `deltas` is the
    grid of relative ray offsets.  By default dt = delta |m0|^2 / 2 spans
    +-2 max(s, dt*) with dt* = s nu / sqrt(1 - nu^2) (`model.extremizer()`,
    for nu < 1), so the grid brackets both branch extrema.
    """
    unperturbed, solve, c_host, margin = _oracle(model.params, n, g_max)
    k0 = np.asarray(model.k0)
    knorm = model.knorm
    split = model.s / knorm
    center = model.centre

    if deltas is None:
        m2 = sum(c * c for c in model.m0)
        # delta_tilde spans +-2 splittings or +-2 dt*; convert to relative ray offset
        dt_half = 2.0 * max(split * knorm, 1e-4, model.extremizer() if model.nu < 1.0 else 0.0)
        deltas = np.linspace(-2.0 * dt_half / m2, 2.0 * dt_half / m2, n_deltas)
    deltas = np.asarray(deltas, dtype=float)

    window = max(window_factor * split, 1e-3)
    lower = np.empty(len(deltas))
    upper = np.empty(len(deltas))
    ritz = None
    for i, d in enumerate(deltas):
        kv = (1.0 + d) * k0
        res = solve(kv, _auto_count(unperturbed(kv), kv, center, window, margin), ritz)
        ritz = res.vectors
        omegas = np.sqrt(np.maximum(res.eigenvalues, 0.0)) / c_host
        lower[i], upper[i] = _pick_two_bands(omegas, center, window)

    lo = float(lower.max())
    hi = float(upper.min())
    if lo >= hi:
        return None
    return MeasuredGap(lo, hi, lower, upper, deltas)
