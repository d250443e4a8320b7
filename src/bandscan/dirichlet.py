"""Asymptotic dispersion and local gaps for sound-soft (Dirichlet) inclusions.

Leading-order formulas only; the O(a^2) remainders are never synthesized
(the numerical oracles quantify them).  With the scaled variables

    a_tilde = 4 pi a q / |Pi|,     delta_tilde = delta |m0|^2 / 2,

the two dispersion branches over the ray k = (1 + delta) k0 through an
order-two exceptional point are

    omega_pm / c = |k0| + (a_tilde + nu*delta_tilde +- sqrt(a_tilde^2 +
                   delta_tilde^2)) / (2 |k0|),

and for nu < 1 the branch extrema give the local gap

    (|k0| + a_tilde*nu_minus/(2|k0|),  |k0| + a_tilde*nu_plus/(2|k0|)),
    nu_pm = 1 +- sqrt(1 - nu^2),

attained at delta_tilde = +-a_tilde*nu/sqrt(1-nu^2).  For nu > 1 the branch
ranges overlap and there is no gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lattice
from .errors import DomainError

#: Cell volume |Pi| of the cube [-pi, pi]^3.
CELL_VOLUME = (2.0 * math.pi) ** 3

#: Default half-width of the scan ray in delta_tilde.
DEFAULT_DELTA0 = 0.1


@dataclass(frozen=True)
class DirichletParams:
    """Inclusion scale a, shape factor q, host speed c.

    a = 0 is the inclusionless limit and is accepted.  The asymptotics
    requires a small against the cell half-width pi: a >= 0.5*pi is
    rejected, a > 0.2*pi draws a validity warning.
    """

    a: float
    q: float = 1.0
    c: float = 1.0
    cell_volume: float = CELL_VOLUME

    def __post_init__(self):
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise DomainError("inclusion scale a must be finite and >= 0")
        if self.a >= 0.5 * math.pi:
            raise DomainError(f"a={self.a} too large; require a < 0.5*pi")
        if self.a > 0.2 * math.pi:
            warnings.warn(
                f"a={self.a} above 0.2*pi; asymptotic accuracy degrades",
                stacklevel=2,
            )
        if not (self.q > 0.0):
            raise DomainError("shape factor q must be positive")
        if not (self.c > 0.0):
            raise DomainError("wave speed c must be positive")
        if self.cell_volume != CELL_VOLUME:
            raise DomainError("cell_volume is fixed to (2*pi)^3 for the unit cell")

    @property
    def a_tilde(self) -> float:
        return 4.0 * math.pi * self.a * self.q / self.cell_volume


def delta_tilde_from_delta(delta: float, m0) -> float:
    m0 = lattice.as_shift(m0)
    return delta * (m0[0] ** 2 + m0[1] ** 2 + m0[2] ** 2) / 2.0


def delta_from_delta_tilde(delta_tilde: float, m0) -> float:
    m0 = lattice.as_shift(m0)
    return 2.0 * delta_tilde / (m0[0] ** 2 + m0[1] ** 2 + m0[2] ** 2)


class GapStatus(Enum):
    PREDICTED = "predicted"
    NO_GAP_NU = "no gap: nu >= 1"
    DEGENERATE_SPLITTING = "no gap: zero splitting"


@dataclass(frozen=True)
class GapInterval:
    lo_over_c: float
    hi_over_c: float
    k0: tuple[float, float, float]
    m0: tuple[int, int, int]
    problem: str  # "dirichlet" | "transmission"
    a: float

    def __post_init__(self):
        if not self.lo_over_c < self.hi_over_c:
            raise ValueError("gap interval must have lo < hi")

    @property
    def width_over_c(self) -> float:
        return self.hi_over_c - self.lo_over_c


@dataclass(frozen=True, eq=False)
class BranchCurve:
    """Two-branch dispersion samples along the ray k = (1 + delta) k0."""

    k0: tuple[float, float, float]
    m0: tuple[int, int, int]
    delta_tilde: np.ndarray = field(repr=False)
    omega_minus_over_c: np.ndarray = field(repr=False)
    omega_plus_over_c: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.delta_tilde)

    def samples(self):
        return list(
            zip(
                self.delta_tilde.tolist(),
                self.omega_minus_over_c.tolist(),
                self.omega_plus_over_c.tolist(),
            )
        )


def epsilon_nonexceptional(k, p: DirichletParams, tol: float = lattice.DEFAULT_TOL) -> float:
    """Leading-order dispersion correction eps = 2 pi q a / (|k|^2 |Pi|).

    The dispersion point is omega = (1 + eps) c |k|.  Only valid for
    non-exceptional k; exceptional vectors must go through branch_pair.
    """
    k = np.asarray(k, dtype=float)
    cls = lattice.classify_wavevector(k, tol)
    if cls.order != 1:
        raise DomainError(
            f"k={tuple(k)} is exceptional of order {cls.order}; use branch_pair"
        )
    k2 = float(np.dot(k, k))
    return 2.0 * math.pi * p.q * p.a / (k2 * p.cell_volume)


def branch_pair(
    k0,
    m0,
    p: DirichletParams,
    delta_tilde: float,
    delta0: float = DEFAULT_DELTA0,
    tol: float = lattice.DEFAULT_TOL,
) -> tuple[float, float]:
    """(omega_minus/c, omega_plus/c) at one delta_tilde, leading order."""
    lattice.require_order_two_pair(k0, m0, tol)
    if abs(delta_tilde) > delta0:
        raise DomainError(
            f"|delta_tilde|={abs(delta_tilde)} exceeds the ray half-width {delta0}"
        )
    k0 = np.asarray(k0, dtype=float)
    knorm = float(np.linalg.norm(k0))
    nu_val = lattice.nu(k0, m0, tol)
    at = p.a_tilde
    root = math.hypot(at, delta_tilde)
    base = knorm + (at + nu_val * delta_tilde) / (2.0 * knorm)
    return (base - root / (2.0 * knorm), base + root / (2.0 * knorm))


def dispersion_scan(
    k0,
    m0,
    p: DirichletParams,
    delta_range: tuple[float, float] = (-DEFAULT_DELTA0, DEFAULT_DELTA0),
    n_samples: int = 101,
    delta0: float | None = None,
    tol: float = lattice.DEFAULT_TOL,
) -> BranchCurve:
    """Sample branch_pair uniformly over a delta_tilde range, sorted."""
    lo, hi = float(delta_range[0]), float(delta_range[1])
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if hi < lo:
        raise DomainError("delta_range must be increasing")
    if delta0 is None:
        delta0 = max(abs(lo), abs(hi), DEFAULT_DELTA0)
    dts = np.linspace(lo, hi, n_samples) if n_samples > 1 else np.array([lo])
    lower = np.empty(n_samples)
    upper = np.empty(n_samples)
    for i, dt in enumerate(dts):
        lower[i], upper[i] = branch_pair(k0, m0, p, float(dt), delta0, tol)
    m0 = lattice.as_shift(m0)
    k0 = tuple(float(x) for x in np.asarray(k0, dtype=float))
    return BranchCurve(k0, m0, dts, lower, upper)


def gap_with_status(
    k0,
    m0,
    p: DirichletParams,
    exclusion_band: float = lattice.DEFAULT_EXCLUSION_BAND,
    tol: float = lattice.DEFAULT_TOL,
) -> tuple[GapStatus, GapInterval | None]:
    """Local gap interval from the closed-form branch extrema, with status."""
    adm = lattice.gap_admissible(k0, m0, exclusion_band, tol)
    if adm.verdict is lattice.Verdict.HIGHER_ORDER_EXCLUDED:
        raise DomainError(
            "k0 is a higher-order exceptional point (three or more plane waves "
            "degenerate); no gap theory here"
        )
    if adm.verdict is lattice.Verdict.BOUNDARY_EXCLUDED:
        raise DomainError(
            f"|k0|/|m0|={adm.ratio} inside the exclusion band around sqrt(2)/2"
        )
    if adm.verdict is lattice.Verdict.NO_GAP:
        return GapStatus.NO_GAP_NU, None

    nu_val = adm.nu
    if p.a_tilde == 0.0:
        return GapStatus.DEGENERATE_SPLITTING, None
    k0 = np.asarray(k0, dtype=float)
    knorm = float(np.linalg.norm(k0))
    s = math.sqrt(1.0 - nu_val * nu_val)
    lo = knorm + p.a_tilde * (1.0 - s) / (2.0 * knorm)
    hi = knorm + p.a_tilde * (1.0 + s) / (2.0 * knorm)
    interval = GapInterval(
        lo_over_c=lo,
        hi_over_c=hi,
        k0=tuple(float(x) for x in k0),
        m0=lattice.as_shift(m0),
        problem="dirichlet",
        a=p.a,
    )
    return GapStatus.PREDICTED, interval


def local_gap(
    k0,
    m0,
    p: DirichletParams,
    exclusion_band: float = lattice.DEFAULT_EXCLUSION_BAND,
    tol: float = lattice.DEFAULT_TOL,
) -> GapInterval | None:
    """Local gap near omega = c|k0|, or None when nu > 1 (no gap)."""
    _, interval = gap_with_status(k0, m0, p, exclusion_band, tol)
    return interval


def gap_extremizer_delta_tilde(k0, m0, p: DirichletParams, tol: float = lattice.DEFAULT_TOL) -> float:
    """delta_tilde at which omega_minus attains its maximum (nu < 1 only)."""
    nu_val = lattice.nu(k0, m0, tol)
    if nu_val >= 1.0:
        raise DomainError("branch extrema exist only for nu < 1")
    return p.a_tilde * nu_val / math.sqrt(1.0 - nu_val * nu_val)


def exceptional_splitting_check(
    k0, m0, p: DirichletParams, tol: float = lattice.DEFAULT_TOL
) -> tuple[float, float]:
    """The two eps roots at delta = 0 from the 2x2 interaction matrix.

    det(2 eps |k0|^2 |Pi| Id - 4 pi q a J) = 0 with J the all-ones matrix;
    the eigenvalues of J give eps2 = 0 and eps1 = a_tilde / |k0|^2, which
    matches the upper branch of branch_pair at delta_tilde = 0.
    """
    lattice.require_order_two_pair(k0, m0, tol)
    k0 = np.asarray(k0, dtype=float)
    k2 = float(np.dot(k0, k0))
    J = np.ones((2, 2))
    lam = np.linalg.eigvalsh(J)
    eps = 4.0 * math.pi * p.q * p.a * lam / (2.0 * k2 * p.cell_volume)
    eps = np.sort(eps)
    return float(eps[1]), float(eps[0])
