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

import numpy as np

from . import lattice
from .dirichlet import DirichletParams
from .errors import DomainError, NumericalError

#: Generic default ray: rationally independent components.
DEFAULT_DIRECTION = (1.0, math.sqrt(2.0), math.sqrt(3.0))

#: Perturbations of the ray tried before a frequency counts as uncovered.
MAX_PERTURBATIONS = 8

#: Cap of `samples`: near omega/c = 1 a scan at the cap, CSV included, takes 0.5 s and 65 MB.
MAX_SAMPLES = 100_000


def _root_along_ray(omega, A: float):
    """Upper root of t + A/t = omega, the dispersion relation (1 + A/t^2) t = omega, for one
    omega or an array of them; refused at the first omega without a real root."""
    with np.errstate(over="ignore"):  # past 1.3e154 the root is inf, refused as |k| past its cap
        disc = omega * omega - 4.0 * A
    dry = np.ravel(disc <= 0.0)
    if dry.any():
        raise NumericalError(f"no propagating branch at omega/c={np.ravel(omega)[dry.argmax()]}"
                             ": a too large for the window")
    return 0.5 * (omega + np.sqrt(disc))


def cover_frequency(
    omega_over_c,
    p: DirichletParams,
    direction=DEFAULT_DIRECTION,
    tol: float = lattice.DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """(K, residual): per omega of `omega_over_c` (a scalar gives one row), a non-exceptional k
    on a ray with (1 + eps(a, k)) |k| = omega/c, and the residual of that relation.

    The roots along the ray come in closed form, and the perturbed directions do not depend
    on omega, so each attempt classifies at once every omega still on an exceptional vector.
    """
    om = np.ravel(omega_over_c).astype(float)
    ok = (0.0 < om) & (om < math.inf)  # NaN fails too
    if not ok.all():
        raise DomainError(f"omega_over_c: must be > 0 and finite, got {om[np.argmin(ok)]}")
    d = np.asarray(direction, dtype=float)
    if np.linalg.norm(d) == 0:
        raise DomainError("direction: must be nonzero")
    lattice.require_tol(tol)
    t = _root_along_ray(om, p.epsilon(1.0))  # eps(k) = A / |k|^2
    K, norms = np.empty((len(om), 3)), np.empty(len(om))
    todo = np.arange(len(om))
    for attempt in range(MAX_PERTURBATIONS + 1):
        Kt = t[todo, None] * (d / np.linalg.norm(d))
        # bit for bit each row's float(np.linalg.norm(k)); np.linalg.norm(Kt, axis=1) is not
        nt = np.sqrt(np.vecdot(Kt, Kt))
        clear = lattice.order_one(Kt, nt, tol)
        K[todo[clear]], norms[todo[clear]] = Kt[clear], nt[clear]
        todo = todo[~clear]
        if not len(todo):
            break
        # rotate slightly off the exceptional plane and retry
        d = d + (attempt + 1) * 1e-3 * np.array([1.0, -0.5, 0.25])
    else:
        raise NumericalError(f"could not find a non-exceptional cover for omega/c={om[todo[0]]}")
    return K, np.abs((1.0 + p.epsilon(t)) * norms - om)


def global_scan(
    omega_lo: float,
    omega_hi: float,
    samples: int,
    p: DirichletParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, K, residual): `samples` omegas in [omega_lo, omega_hi], each covered by a wave."""
    if not 0.0 < omega_lo < omega_hi < math.inf:  # NaN fails too
        raise DomainError(f"omega_lo, omega_hi: must satisfy 0 < omega_lo < omega_hi < inf, "
                          f"got {omega_lo}, {omega_hi}")
    lattice.require_between("samples", samples, 1, MAX_SAMPLES)
    with np.errstate(over="ignore"):  # the step overflows on its way to an omega_hi near 1.8e308
        omega = np.linspace(omega_lo, omega_hi, samples)
    return (omega, *cover_frequency(omega, p))
