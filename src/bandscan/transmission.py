"""Asymptotic dispersion and local gaps for penetrable spherical inclusions.

Material contrast enters through

    alpha = 1 - gamma_minus/gamma_plus,
    beta  = 3 (sigma - 1) / (sigma + 2),    sigma = rho_plus/rho_minus,

(+ outside / - inside), and the geometry through f, the inclusion volume
fraction of the (2 pi)^3 cell.  An order-two pair is the two-mode model of
`twomode` with these branches over the ray k = (1 + delta) k0:

    omega_pm / c = |k0| (1 + (alpha+beta) f / 2)
                   + (nu*dt +- sqrt(mu^2 + dt^2)) / (2 |k0|),

with dt = delta |m0|^2 / 2 and mu = |alpha + beta kh0.kh1| |k0|^2 f, where
kh0, kh1 are the unit vectors of k0 and k1 = k0 - m0.  For nu < 1 the local
gap is the interval of half-width mu*sqrt(1-nu^2)/(2|k0|) centered at
|k0|(1 + (alpha+beta) f / 2); frequencies are in units of the host speed.

`TransmissionParams` owns what is particular to this problem: the order-one
shift eps = (alpha + beta) f / 2 (`epsilon`), the pair centre |k0|(1 + eps)
and the splitting mu that it supplies to `twomode.pair_model`
(`centre_and_splitting`), and the report's materials, mu and centre
(`report_fields`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import lattice
from .dirichlet import CELL_VOLUME
from .errors import DomainError

#: Range of the plane-wave oracle's truncation.  The dense solve of the full
#: basis, (2 g_max + 1)^3 modes, peaks at 259 MB at 6 and 513 MB at 7.
MIN_G_MAX, MAX_G_MAX = 2, 6


@dataclass(frozen=True)
class MaterialSpec:
    gamma_plus: float
    gamma_minus: float
    rho_plus: float
    rho_minus: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{f.name}: must be finite and > 0, got {v}")

    @property
    def sigma(self) -> float:
        return self.rho_plus / self.rho_minus

    @property
    def alpha(self) -> float:
        return 1.0 - self.gamma_minus / self.gamma_plus

    @property
    def beta(self) -> float:
        s = self.sigma
        return 3.0 * (s - 1.0) / (s + 2.0)

    @property
    def c_plus(self) -> float:
        return 1.0 / math.sqrt(self.gamma_plus * self.rho_plus)


def volume_fraction(a: float) -> float:
    return (4.0 / 3.0) * math.pi * a**3 / CELL_VOLUME


@dataclass(frozen=True)
class TransmissionParams:
    """Materials plus sphere radius a; f is always derived from a."""

    materials: MaterialSpec
    a: float

    def __post_init__(self):
        if not 0.0 < volume_fraction(self.a) < 1.0:  # NaN fails too
            raise DomainError(f"a: must be > 0 with a volume fraction below 1, got {self.a}")

    @property
    def f(self) -> float:
        return volume_fraction(self.a)

    @property
    def epsilon(self) -> float:
        """Order-one shift eps = (alpha + beta) f / 2, the same at every non-exceptional k:
        omega = (1 + eps) c |k| with c the host speed."""
        mats = self.materials
        return 0.5 * (mats.alpha + mats.beta) * self.f

    def centre_and_splitting(self, k0, m0, knorm: float) -> tuple[float, float]:
        """The pair centre |k0|(1 + eps) and the splitting mu of an admitted pair."""
        return knorm * (1.0 + self.epsilon), coupling_mu(k0, m0, self)

    def report_fields(self, model) -> dict:
        """The `GapReport` fields of this problem for the pair's `model`."""
        return dict(asdict(self.materials), mu=model.s, k0_tilde_norm=model.centre)


def khat_dot(k0, m0) -> float:
    """kh0 . kh1 of an admitted pair, for k1 = k0 - m0 on the Ewald sphere (|k1| = |k0|)."""
    k0 = lattice.as_wavevector("k0", k0)
    k1 = k0 - np.asarray(lattice.as_shift(m0), dtype=float)
    return float(np.dot(k0, k1) / (np.linalg.norm(k0) * np.linalg.norm(k1)))


def coupling_mu(k0, m0, params: TransmissionParams) -> float:
    """Splitting amplitude mu = |alpha + beta kh0.kh1| |k0|^2 f of an admitted pair."""
    k0v = np.asarray(k0, dtype=float)
    mats = params.materials
    c1 = khat_dot(k0, m0)
    return abs(mats.alpha + mats.beta * c1) * float(np.dot(k0v, k0v)) * params.f
