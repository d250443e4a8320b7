"""Independent numerical oracles: eigensolvers that compute Bloch
eigenfrequencies from first principles, used to validate the asymptotic
formulas and to adjudicate their internal factor ambiguities."""

from .eig import EigResult, hermitian_eigensolve
from .fd import (
    discrete_inclusion_capacitance,
    fd_dirichlet_eigenvalues,
    lattice_green,
    mask_pattern,
)
from .pwe import pwe_transmission_eigenvalues, sphere_indicator_fourier
from .gapscan import measure_gap_numeric

__all__ = [
    "EigResult",
    "discrete_inclusion_capacitance",
    "fd_dirichlet_eigenvalues",
    "hermitian_eigensolve",
    "lattice_green",
    "mask_pattern",
    "measure_gap_numeric",
    "pwe_transmission_eigenvalues",
    "sphere_indicator_fourier",
]
