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
anything of the inclusion is computed, and the admission carries the pair it
judged.  `TwoModeModel(admissibility, params)` takes the pair from it, refuses
an admission that excludes the pair before it asks the params for anything,
and keeps the params, so the model is all an oracle needs to measure it.
`pair_model(k0, m0, params)` admits the pair at the default band and tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import lattice
from .errors import DomainError


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


def order_two_admissibility(k0, m0, exclusion_band: float = lattice.DEFAULT_EXCLUSION_BAND,
                            tol: float = lattice.DEFAULT_TOL) -> lattice.GapAdmissibility:
    """`lattice.gap_admissible` of (k0, m0), which classifies k0 once, refusing what a gap
    request refuses: a higher-order k0 (three or more degenerate plane waves have no two-mode
    gap) and a ratio |k0|/|m0| inside the exclusion band around sqrt(2)/2."""
    adm = lattice.gap_admissible(k0, m0, exclusion_band, tol)
    if adm.verdict is lattice.Verdict.HIGHER_ORDER_EXCLUDED:
        raise DomainError(f"k0={adm.k0} is a higher-order exceptional point (three or more "
                          "plane waves degenerate); no gap theory here")
    if adm.verdict is lattice.Verdict.BOUNDARY_EXCLUDED:
        raise DomainError(f"|k0|/|m0|={adm.ratio} inside the exclusion band around sqrt(2)/2")
    return adm


def pair_model(k0, m0, params) -> TwoModeModel:
    """The model of the pair (k0, m0), admitted by `order_two_admissibility` at the default
    band and tol, with the inclusion `params`, a `DirichletParams` or a `TransmissionParams`."""
    return TwoModeModel(order_two_admissibility(k0, m0), params)


class TwoModeModel:
    """Branches, scans and the local gap of the pair that `admissibility` judged, with the
    `params` that supply its centre and splitting; the model classifies nothing itself."""

    def __init__(self, admissibility: lattice.GapAdmissibility, params):
        if admissibility.verdict not in (lattice.Verdict.GAP_PREDICTED, lattice.Verdict.NO_GAP):
            raise DomainError(f"admissibility: {admissibility.verdict.value} admits no model of "
                              f"(k0={admissibility.k0}, m0={admissibility.m0})")
        self.admissibility = admissibility
        self.params = params
        self.k0, self.m0, self.nu = admissibility.k0, admissibility.m0, admissibility.nu
        self.knorm = float(np.linalg.norm(self.k0))
        centre, s = params.centre_and_splitting(self.k0, self.m0, self.knorm)
        self.centre = float(centre)
        self.s = float(s)

    def branches(self, delta_tilde):
        """(omega_minus/c, omega_plus/c) at a scalar or an array of delta_tilde."""
        dt = np.asarray(delta_tilde, dtype=float)
        half = np.hypot(self.s, dt) / (2.0 * self.knorm)
        base = self.centre + self.nu * dt / (2.0 * self.knorm)
        return base - half, base + half

    def scan(self, delta_range: tuple[float, float], n_samples: int) -> tuple[np.ndarray, ...]:
        """(delta_tilde, omega_minus_over_c, omega_plus_over_c): both branches along the ray
        k = (1 + delta) k0, at n_samples uniform delta_tilde over delta_range."""
        lo, hi = float(delta_range[0]), float(delta_range[1])
        if n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if hi < lo:
            raise DomainError("delta_range must be increasing")
        dts = np.linspace(lo, hi, n_samples)
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper = self.branches(dts)
        bad = ~(np.isfinite(lower) & np.isfinite(upper))  # at a ray end past float64's range
        if bad.any():
            raise DomainError(f"{'delta_tilde_min' if bad[0] else 'delta_tilde_max'}: the "
                              f"branches at {dts[bad.argmax()]} leave float64's range")
        return dts, lower, upper

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
