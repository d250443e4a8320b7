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

`DirichletParams` owns what is particular to this problem: the order-one
shift eps = 2 pi q a / (|k|^2 |Pi|) at a non-exceptional k (`epsilon`), the
pair centre and splitting that it supplies to `twomode.pair_model`
(`centre_and_splitting`), and the report's q, a_tilde and nu_pm
(`report_fields`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError

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

    def epsilon(self, knorm: float) -> float:
        """Order-one shift eps = 2 pi q a / (|k|^2 |Pi|) at a non-exceptional k of norm knorm:
        omega = (1 + eps) c |k|."""
        return 2.0 * math.pi * self.q * self.a / CELL_VOLUME / (knorm * knorm)

    def centre_and_splitting(self, k0, m0, knorm: float) -> tuple[float, float]:
        """The pair centre |k0| + a_tilde/(2|k0|) and the splitting a_tilde of an admitted pair."""
        return knorm + self.a_tilde / (2.0 * knorm), self.a_tilde

    def report_fields(self, model) -> dict:
        """The `GapReport` fields of this problem for the pair's `model`."""
        fields = dict(q=self.q, a_tilde=model.s)
        if model.nu <= 1.0:
            root = math.sqrt(1.0 - model.nu**2)
            fields.update(nu_minus=1.0 - root, nu_plus=1.0 + root)
        return fields
