"""Plane-wave-expansion eigensolver for the penetrable-sphere problem.

The weak form div(grad u / rho) + omega^2 gamma u = 0 with Bloch vector k
becomes, in the Fourier basis u = sum_g u_g e^{i (k+g).x},

    sum_g' (k+g).(k+g') eta^(g-g') u_g' = omega^2 sum_g' gamma^(g-g') u_g',

with eta = 1/rho.  Both coefficient fields are piecewise constant with a
sphere at the origin, so their Fourier coefficients come from the analytic
ball-indicator transform (never from FFT sampling).  The pencil (A, B) is
real symmetric with B positive definite; a uniform medium gives
omega^2 = c^2 |k+g|^2 exactly.

eta and gamma depend on g - g' only, which lies on the (4 g_max + 1)^3
difference lattice, so the transform is evaluated there and gathered into
the two matrices by the integer code of g - g' (the Toeplitz structure of
Ho, Chan & Soukoulis, PRL 65, 3152, 1990).  eta and gamma are built once
per (params, g_max), the basis once per g_max, and kept for the next call,
so along a ray each Bloch vector costs one product (k+g).(k+g') * eta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from ..errors import DomainError, NumericalError
from ..lattice import integer_cube
from ..transmission import TransmissionParams, volume_fraction
from .eig import EigResult

#: Cap on the plane-wave basis size (2*g_max+1)^3.
MAX_BASIS = 12_000


@dataclass(frozen=True)
class PWEBasis:
    """Lexicographically ordered integer modes with |g|_inf <= g_max."""

    g_max: int
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.g_max < 1:
            raise DomainError("g_max must be >= 1")
        size = (2 * self.g_max + 1) ** 3
        if size > MAX_BASIS:
            raise DomainError(f"basis size {size} exceeds cap {MAX_BASIS}")
        object.__setattr__(self, "basis", integer_cube(self.g_max))

    def __len__(self):
        return len(self.basis)


def sphere_indicator_fourier(g, a: float):
    """Fourier coefficient of the radius-a ball indicator on the cell.

    Normalized so the g = 0 value is exactly the volume fraction
    f = (4/3) pi a^3 / (2 pi)^3; for g != 0 the value is
    f * 3 (sin t - t cos t) / t^3 with t = |g| a, which tends to f as
    t -> 0.  Accepts an integer 3-vector or an array of |g| values.
    """
    if a <= 0:
        raise DomainError("sphere radius must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = np.linalg.norm(g) if g.shape == (3,) else g
    f = volume_fraction(a)
    t = np.asarray(gnorm, dtype=float) * a
    out = np.full(t.shape, f)
    small = t < 1e-4
    ts = t[small]
    out[small] = f * (1.0 - ts * ts / 10.0 + ts**4 / 280.0)
    big = ~small
    tb = t[big]
    out[big] = f * 3.0 * (np.sin(tb) - tb * np.cos(tb)) / tb**3
    if out.shape == ():
        return float(out)
    return out


@lru_cache(maxsize=1)
def _float_basis(g_max: int) -> np.ndarray:
    """The PWEBasis(g_max) modes as a read-only float array."""
    basis = PWEBasis(g_max).basis.astype(float)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=1)
def _coefficient_matrices(params: TransmissionParams, g_max: int):
    """Read-only (eta, gamma) matrices, gathered from the difference lattice."""
    basis = PWEBasis(g_max).basis
    side = 4 * g_max + 1
    diffs = integer_cube(2 * g_max)
    dnorm = np.linalg.norm(diffs.astype(float), axis=1)
    chi = sphere_indicator_fourier(dnorm, params.a)
    mats = params.materials
    eta_p = 1.0 / mats.rho_plus
    eta_m = 1.0 / mats.rho_minus
    diag = dnorm < 0.5
    eta = np.where(diag, eta_p, 0.0) + (eta_m - eta_p) * chi
    gam = np.where(diag, mats.gamma_plus, 0.0) + (mats.gamma_minus - mats.gamma_plus) * chi
    # index of g - g' in `diffs`: the mixed-radix code is linear in the mode
    code = (basis[:, 0] * side + basis[:, 1]) * side + basis[:, 2]
    idx = code[:, None] - code[None, :] + 2 * g_max * (side * side + side + 1)
    eta, gam = eta[idx], gam[idx]
    eta.flags.writeable = False
    gam.flags.writeable = False
    return eta, gam


def assemble_pwe(k, params: TransmissionParams, g_max: int):
    """(A, B) pencil matrices for one Bloch vector; B is shared and read-only."""
    k = np.asarray(k, dtype=float)
    eta, gam = _coefficient_matrices(params, g_max)
    kg = k[None, :] + _float_basis(g_max)
    return (kg @ kg.T) * eta, gam


def pwe_transmission_eigenvalues(
    k, params: TransmissionParams, g_max: int, count: int
) -> EigResult:
    """Lowest `count` omega^2 values of the transmission cell problem."""
    if g_max < 2:
        raise DomainError("g_max must be >= 2")
    if count < 1:
        raise DomainError("count must be >= 1")
    if g_max * params.a < 1.0:
        warnings.warn(
            f"g_max*a = {g_max * params.a:.2f} < 1: truncation barely "
            "resolves the sphere",
            stacklevel=2,
        )
    A, B = assemble_pwe(k, params, g_max)
    herm = np.linalg.norm(A - A.T) / max(np.linalg.norm(A), 1e-300)
    if herm > 1e-12:
        raise NumericalError(f"PWE assembly not symmetric (defect {herm:.2e})")
    if count > len(A):
        raise DomainError(f"count {count} exceeds basis size {len(A)}")
    try:
        vals, vecs = scipy.linalg.eigh(A, B, subset_by_index=(0, count - 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    res = np.linalg.norm(A @ vecs - (B @ vecs) * vals[None, :], axis=0)
    scale = max(np.max(np.abs(vals)), 1e-300)
    return EigResult(np.asarray(vals, dtype=float), float(np.max(res) / scale))
