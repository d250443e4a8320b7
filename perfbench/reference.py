"""Reference values for checking bandscan's outputs, computed without bandscan.

Everything here is written from the formulas in PAPER.md and the two-mode
form both problems share,

    omega_pm / c = centre + (nu * dt +- sqrt(s^2 + dt^2)) / (2 |k0|),

with (centre, s) = (|k0| + a_t / (2|k0|), a_t) for the sound-soft inclusion
(a_t = 4 pi a q / (2 pi)^3) and (|k0| (1 + (alpha + beta) f / 2), mu) for
the penetrable sphere.  For nu < 1 the local gap is centre -+ s sqrt(1 - nu^2)
/ (2|k0|).  Nothing in this module imports the program under test, so a
defect there cannot hide in the reference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import elliprf

CELL_VOLUME = (2.0 * math.pi) ** 3
SQRT_HALF = math.sqrt(2.0) / 2.0
TOL = 1e-9
EXCLUSION_BAND = 1e-6
REL = 1e-12


def close(got: float, want: float, rel: float = REL) -> bool:
    return got == want or abs(got - want) <= rel * max(abs(got), abs(want))


@lru_cache(maxsize=None)
def _box(bound: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.arange(-bound, bound + 1)
    m = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    m2 = (m * m).sum(axis=1)
    keep = m2 > 0
    return m[keep], m2[keep]


def shifts(k, tol: float = TOL) -> list[tuple[int, int, int]]:
    """Sorted nonzero integer m with |2 k.m - |m|^2| <= tol max(1, |m|^2).

    |m| <= 2|k| on the plane (Cauchy-Schwarz), so the box below is
    exhaustive; the order of k is 1 + len(shifts(k)).
    """
    k = np.asarray(k, dtype=float)
    m, m2 = _box(math.ceil(2.0 * float(np.linalg.norm(k))) + 1)
    hit = np.abs(2.0 * (m @ k) - m2) <= tol * np.maximum(1.0, m2)
    return sorted(tuple(int(c) for c in row) for row in m[hit])


def nu(k0, m0) -> float:
    k0 = np.asarray(k0, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    return 4.0 * float(k0 @ k0) / float(m0 @ m0) - 1.0


def ratio(k0, m0) -> float:
    return float(np.linalg.norm(k0)) / float(np.linalg.norm(m0))


def verdict(k, m) -> str:
    """Gap verdict of one shift m of k, by the rules stated in PAPER.md."""
    if len(shifts(k)) > 1:
        return "HigherOrderExcluded"
    r = ratio(k, m)
    if abs(r - SQRT_HALF) <= EXCLUSION_BAND:
        return "BoundaryExcluded"
    return "GapPredicted" if r < SQRT_HALF else "NoGap"


def two_mode(problem: str, k0, m0, a: float, q: float = 1.0, materials=None):
    """(centre, s, nu, |k0|) of the two-mode model for one order-two pair.

    materials is (gamma_plus, gamma_minus, rho_plus, rho_minus).
    """
    k0 = np.asarray(k0, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    knorm = float(np.linalg.norm(k0))
    if problem == "dirichlet":
        s = 4.0 * math.pi * a * q / CELL_VOLUME
        centre = knorm + s / (2.0 * knorm)
    else:
        g_plus, g_minus, r_plus, r_minus = materials
        alpha = 1.0 - g_minus / g_plus
        sigma = r_plus / r_minus
        beta = 3.0 * (sigma - 1.0) / (sigma + 2.0)
        f = 4.0 / 3.0 * math.pi * a**3 / CELL_VOLUME
        k1 = k0 - m0
        cos01 = float(k0 @ k1) / (knorm * float(np.linalg.norm(k1)))
        s = abs(alpha + beta * cos01) * knorm * knorm * f
        centre = knorm * (1.0 + 0.5 * (alpha + beta) * f)
    return centre, s, nu(k0, m0), knorm


def branches(model, dts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centre, s, nu_val, knorm = model
    root = np.sqrt(s * s + dts * dts)
    return (
        centre + (nu_val * dts - root) / (2.0 * knorm),
        centre + (nu_val * dts + root) / (2.0 * knorm),
    )


def gap_edges(model) -> tuple[float, float] | None:
    centre, s, nu_val, knorm = model
    if nu_val >= 1.0 or s == 0.0:
        return None
    half = s * math.sqrt(1.0 - nu_val * nu_val) / (2.0 * knorm)
    return centre - half, centre + half


def ellipsoid_q(a1: float, a2: float, a3: float) -> float:
    """Shape factor of an ellipsoid: 2 / int ds / sqrt(prod(s + a_i^2)) = 1 / R_F."""
    return 1.0 / float(elliprf(a1 * a1, a2 * a2, a3 * a3))


def face_disk(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Gap flags on the face of an axis shift m0 = +-e_i (|m0| = 1).

    No other Bragg plane crosses the disk |k| < |m0| sqrt(2)/2 on such a
    face, so the flagged set is exactly ratio < sqrt(2)/2 - band there.
    """
    r = np.sqrt(t1 * t1 + t2 * t2 + 0.25)
    return r < SQRT_HALF - EXCLUSION_BAND


def covered_omega(k, a: float, q: float = 1.0) -> float:
    """Non-exceptional dispersion omega/c = (1 + eps) |k|, eps = 2 pi q a / (|k|^2 |cell|)."""
    kn = float(np.linalg.norm(k))
    return kn + 2.0 * math.pi * q * a / (kn * CELL_VOLUME)
