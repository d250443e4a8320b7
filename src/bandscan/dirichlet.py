"""Asymptotic dispersion and local gaps for sound-soft (Dirichlet) inclusions.

Leading-order formulas only; the O(a^2) remainders are never synthesized
(the numerical oracles quantify them).  With the scaled variables

    a_tilde = 4 pi a q / |Pi|,     delta_tilde = delta |m0|^2 / 2,

an order-two pair is the two-mode model of `twomode` with pair centre
|k0| + a_tilde / (2 |k0|) and splitting a_tilde:

    omega_pm / c = |k0| + (a_tilde + nu*delta_tilde +- sqrt(a_tilde^2 +
                   delta_tilde^2)) / (2 |k0|),

and for nu < 1 the local gap is

    (|k0| + a_tilde*nu_minus/(2|k0|),  |k0| + a_tilde*nu_plus/(2|k0|)),
    nu_pm = 1 +- sqrt(1 - nu^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import DomainError
from .twomode import TwoModeModel, order_two_admissibility

#: Cell volume |Pi| of the cube [-pi, pi]^3.
CELL_VOLUME = (2.0 * math.pi) ** 3

#: Grid sizes n of the finite-difference oracle, which masks the sphere on an n^3
#: grid.  96, the largest grid any check runs, peaks at 631 MB in the oracle's build.
MIN_N, MAX_N = 16, 96


def require_scale(a: float) -> None:
    """Refuses a scale outside 0 <= a < 0.5*pi: the bound of DirichletParams and the FD oracle."""
    if not 0.0 <= a < 0.5 * math.pi:  # NaN fails too
        raise DomainError(f"a: must be >= 0 and < 0.5*pi, got {a}")


@dataclass(frozen=True)
class DirichletParams:
    """Inclusion scale a and shape factor q; the cell is [-pi, pi]^3.

    a = 0 is the inclusionless limit and is accepted.  The asymptotics
    requires a small against the cell half-width pi: a >= 0.5*pi is
    rejected, a > 0.2*pi draws a validity warning.
    """

    a: float
    q: float = 1.0

    def __post_init__(self):
        require_scale(self.a)
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise DomainError(f"q: must be finite and > 0, got {self.q}")
        if self.a > 0.2 * math.pi:
            warnings.warn(
                f"a={self.a} above 0.2*pi; asymptotic accuracy degrades",
                stacklevel=3,  # past the dataclass's generated __init__, to its caller
            )

    @property
    def a_tilde(self) -> float:
        return 4.0 * math.pi * self.a * self.q / CELL_VOLUME


def epsilon_nonexceptional(k, p: DirichletParams, tol: float = lattice.DEFAULT_TOL) -> float:
    """Leading-order dispersion correction eps = 2 pi q a / (|k|^2 |Pi|).

    The dispersion point is omega = (1 + eps) c |k|.  Only valid for
    non-exceptional k; exceptional vectors must go through pair_model.
    """
    k = np.asarray(k, dtype=float)
    cls = lattice.classify_wavevector(k, tol)
    if cls.order != 1:
        raise DomainError(
            f"k={tuple(k.tolist())} is exceptional of order {cls.order}; use pair_model"
        )
    k2 = float(np.dot(k, k))
    return 2.0 * math.pi * p.q * p.a / (k2 * CELL_VOLUME)


def pair_model(k0, m0, p: DirichletParams, admissibility=None) -> TwoModeModel:
    """Two-mode model of (k0, m0): centre |k0| + a_tilde/(2|k0|), splitting a_tilde; the pair's
    `admissibility` is `order_two_admissibility(k0, m0)` unless given."""
    if admissibility is None:
        admissibility = order_two_admissibility(k0, m0)
    knorm = lattice.wavevector_norm("k0", k0)
    return TwoModeModel(k0, m0, knorm + p.a_tilde / (2.0 * knorm), p.a_tilde, admissibility)


def exceptional_splitting_check(
    k0, m0, p: DirichletParams, tol: float = lattice.DEFAULT_TOL
) -> tuple[float, float]:
    """The two eps roots at delta = 0 from the 2x2 interaction matrix.

    det(2 eps |k0|^2 |Pi| Id - 4 pi q a J) = 0 with J the all-ones matrix;
    the eigenvalues of J give eps2 = 0 and eps1 = a_tilde / |k0|^2, which
    matches the upper branch of pair_model at delta_tilde = 0.
    """
    order_two_admissibility(k0, m0, tol=tol)  # refuses what a gap request refuses
    k0 = np.asarray(k0, dtype=float)
    k2 = float(np.dot(k0, k0))
    J = np.ones((2, 2))
    lam = np.linalg.eigvalsh(J)
    eps = 4.0 * math.pi * p.q * p.a * lam / (2.0 * k2 * CELL_VOLUME)
    eps = np.sort(eps)
    return float(eps[1]), float(eps[0])
