"""The two-mode splitting model shared by the Dirichlet and transmission problems.

At an order-two pair (k0, m0) two plane waves share the frequency c|k0|.
At leading order the dispersion sheet over the ray k = (1 + delta) k0
splits into the two branches

    omega_pm / c = centre + (nu*dt +- sqrt(s^2 + dt^2)) / (2 |k0|),

with dt = delta |m0|^2 / 2 and nu = 4 |k0|^2 / |m0|^2 - 1.  A problem only
supplies the pair centre and the splitting s, from the
`centre_and_splitting` of its params:

    Dirichlet      centre = |k0| + a_tilde / (2 |k0|),       s = a_tilde
    transmission   centre = |k0| (1 + (alpha + beta) f / 2),  s = mu

For nu < 1 the lower branch peaks at dt* = s nu / sqrt(1 - nu^2) and the
upper branch dips at -dt*, which leaves the local gap

    centre -+ s sqrt(1 - nu^2) / (2 |k0|).

For nu > 1 the branch ranges overlap and there is no gap.  Whether a pair
has one depends on the pair alone: `order_two_admissibility` admits it before
anything of the inclusion is computed, and `pair_model`, the one constructor
of a pair's model for either problem, checks that admission before it asks
the params for anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lattice
from .errors import DomainError

#: Default half-width of the scan ray in delta_tilde.
DEFAULT_DELTA0 = 0.1


class GapStatus(Enum):
    PREDICTED = "predicted"
    NO_GAP_NU = "no gap: nu >= 1"
    DEGENERATE_SPLITTING = "no gap: zero splitting"


@dataclass(frozen=True)
class GapInterval:
    lo_over_c: float
    hi_over_c: float

    def __post_init__(self):
        if not self.lo_over_c < self.hi_over_c:
            raise ValueError("gap interval must have lo < hi")

    @property
    def width_over_c(self) -> float:
        return self.hi_over_c - self.lo_over_c


@dataclass(frozen=True, eq=False)
class BranchCurve:
    """Two-branch dispersion samples along the ray k = (1 + delta) k0."""

    delta_tilde: np.ndarray = field(repr=False)
    omega_minus_over_c: np.ndarray = field(repr=False)
    omega_plus_over_c: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.delta_tilde)


def order_two_admissibility(k0, m0, exclusion_band: float = lattice.DEFAULT_EXCLUSION_BAND,
                            tol: float = lattice.DEFAULT_TOL) -> lattice.GapAdmissibility:
    """`lattice.gap_admissible` of (k0, m0), which classifies k0 once, refusing what a gap
    request refuses: a higher-order k0 (three or more degenerate plane waves have no two-mode
    gap) and a ratio |k0|/|m0| inside the exclusion band around sqrt(2)/2."""
    adm = lattice.gap_admissible(k0, m0, exclusion_band, tol)
    if adm.verdict is lattice.Verdict.HIGHER_ORDER_EXCLUDED:
        raise DomainError(f"k0={tuple(lattice.as_wavevector('k0', k0).tolist())} is a "
                          "higher-order exceptional point (three or more plane waves "
                          "degenerate); no gap theory here")
    if adm.verdict is lattice.Verdict.BOUNDARY_EXCLUDED:
        raise DomainError(f"|k0|/|m0|={adm.ratio} inside the exclusion band around sqrt(2)/2")
    return adm


def pair_model(k0, m0, params, admissibility=None) -> TwoModeModel:
    """The model of the pair (k0, m0) with the inclusion `params`, a `DirichletParams` or a
    `TransmissionParams`; the pair's `admissibility` is `order_two_admissibility(k0, m0)`
    unless given."""
    if admissibility is None:
        admissibility = order_two_admissibility(k0, m0)
    return TwoModeModel(k0, m0, params, admissibility)


class TwoModeModel:
    """Branches, scans and the local gap of one pair, given its admission by
    `order_two_admissibility` and the params that supply its centre and splitting;
    the model classifies nothing itself."""

    def __init__(self, k0, m0, params, admissibility: lattice.GapAdmissibility):
        self.knorm = lattice.wavevector_norm("k0", k0)
        self.k0 = tuple(float(x) for x in np.asarray(k0, dtype=float))
        self.m0 = lattice.as_shift(m0)
        # the ratio as `lattice.shift_admissibility` computes it, so an admission's is equal
        if (admissibility.verdict not in (lattice.Verdict.GAP_PREDICTED, lattice.Verdict.NO_GAP)
                or admissibility.ratio != self.knorm / math.sqrt(sum(c * c for c in self.m0))):
            raise DomainError(f"admissibility: does not admit (k0={self.k0}, m0={self.m0})")
        self.admissibility = admissibility
        self.nu = admissibility.nu
        centre, s = params.centre_and_splitting(self.k0, self.m0, self.knorm)
        self.centre = float(centre)
        self.s = float(s)

    def branches(self, delta_tilde, delta0: float = DEFAULT_DELTA0):
        """(omega_minus/c, omega_plus/c) at a scalar or an array of delta_tilde."""
        dt = np.asarray(delta_tilde, dtype=float)
        if np.any(np.abs(dt) > delta0):
            raise DomainError(
                f"|delta_tilde|={float(np.max(np.abs(dt)))} exceeds the ray half-width {delta0}"
            )
        half = np.hypot(self.s, dt) / (2.0 * self.knorm)
        base = self.centre + self.nu * dt / (2.0 * self.knorm)
        return base - half, base + half

    def scan(
        self,
        delta_range: tuple[float, float] = (-DEFAULT_DELTA0, DEFAULT_DELTA0),
        n_samples: int = 101,
    ) -> BranchCurve:
        """Both branches at n_samples uniform delta_tilde over delta_range."""
        lo, hi = float(delta_range[0]), float(delta_range[1])
        if n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if hi < lo:
            raise DomainError("delta_range must be increasing")
        dts = np.linspace(lo, hi, n_samples)
        lower, upper = self.branches(dts, max(abs(lo), abs(hi), DEFAULT_DELTA0))
        return BranchCurve(dts, lower, upper)

    def gap(self) -> tuple[GapStatus, GapInterval | None]:
        """Local gap from the branch extrema, with its status.

        A zero splitting (a = 0, or alpha + beta kh0.kh1 = 0) is reported as
        DEGENERATE_SPLITTING, not as a gap of width zero: the leading order
        predicts touching bands there.  So is a splitting too small to move
        omega by one rounding step.
        """
        if self.admissibility.verdict is lattice.Verdict.NO_GAP:
            return GapStatus.NO_GAP_NU, None
        half = self.s * math.sqrt(1.0 - self.nu * self.nu) / (2.0 * self.knorm)
        if not self.centre - half < self.centre + half:  # also a splitting below omega's rounding
            return GapStatus.DEGENERATE_SPLITTING, None
        return GapStatus.PREDICTED, GapInterval(self.centre - half, self.centre + half)

    def extremizer(self) -> float:
        """delta_tilde* where omega_minus peaks; omega_plus dips at -delta_tilde*."""
        if self.nu >= 1.0:
            raise DomainError("branch extrema exist only for nu < 1")
        return self.s * self.nu / math.sqrt(1.0 - self.nu * self.nu)
