"""Constructive demonstration that no global gap opens in a fixed window.

For every frequency omega on a grid, a propagating non-exceptional Bloch
wave is exhibited by solving (1 + eps(a, t d)) t = omega / c for t along a
generic ray direction d; with eps = A / t^2 this is the quadratic
t^2 - omega t + A = 0, whose upper root is taken in closed form.
Directions that land on an exceptional vector are perturbed automatically.
A window with no real root raises, since with small a the dispersion sheet
covers the window and failure indicates a bug rather than physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .dirichlet import DirichletParams
from .errors import DomainError, NumericalError

#: Generic default ray: rationally independent components.
DEFAULT_DIRECTION = (1.0, math.sqrt(2.0), math.sqrt(3.0))

#: Perturbations of the ray tried before a frequency counts as uncovered.
MAX_PERTURBATIONS = 8

#: Cap of `samples`: near omega/c = 1 a sample takes about 70 us and 0.4 KB, so a scan
#: at the cap runs in about 7 s and peaks near 70 MB.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class CoverageRow:
    omega_over_c: float
    k: tuple[float, float, float]
    order: int
    residual: float


def _root_along_ray(omega: float, A: float) -> float:
    """Upper root of t + A/t = omega, the dispersion relation (1 + A/t^2) t = omega."""
    disc = omega * omega - 4.0 * A
    if disc <= 0.0:
        raise NumericalError(
            f"no propagating branch at omega/c={omega}: a too large for the window"
        )
    return 0.5 * (omega + math.sqrt(disc))


def cover_frequency(
    omega_over_c: float,
    p: DirichletParams,
    direction=DEFAULT_DIRECTION,
    tol: float = lattice.DEFAULT_TOL,
) -> CoverageRow:
    """A non-exceptional k with (1 + eps(a, k)) |k| = omega/c on a ray."""
    if omega_over_c <= 0:
        raise DomainError(f"omega_over_c: must be > 0, got {omega_over_c}")
    d = np.asarray(direction, dtype=float)
    if np.linalg.norm(d) == 0:
        raise DomainError("direction: must be nonzero")
    A = p.epsilon(1.0)  # eps(k) = A / |k|^2
    for attempt in range(MAX_PERTURBATIONS + 1):
        dhat = d / np.linalg.norm(d)
        t = _root_along_ray(omega_over_c, A)
        k = t * dhat
        cls = lattice.classify_wavevector(k, tol)
        if cls.order == 1:
            eps = p.epsilon(t)
            residual = abs((1.0 + eps) * float(np.linalg.norm(k)) - omega_over_c)
            return CoverageRow(
                omega_over_c, tuple(float(x) for x in k), cls.order, residual
            )
        # rotate slightly off the exceptional plane and retry
        d = d + (attempt + 1) * 1e-3 * np.array([1.0, -0.5, 0.25])
    raise NumericalError(
        f"could not find a non-exceptional cover for omega/c={omega_over_c}"
    )


def global_scan(
    omega_lo: float,
    omega_hi: float,
    samples: int,
    p: DirichletParams,
) -> list[CoverageRow]:
    """Cover every omega in [omega_lo, omega_hi] by a propagating wave."""
    if not 0.0 < omega_lo < omega_hi < math.inf:  # NaN fails too
        raise DomainError(f"omega_lo, omega_hi: must satisfy 0 < omega_lo < omega_hi < inf, "
                          f"got {omega_lo}, {omega_hi}")
    lattice.require_between("samples", samples, 1, MAX_SAMPLES)
    omegas = np.linspace(omega_lo, omega_hi, samples)
    return [cover_frequency(float(om), p) for om in omegas]
