"""Independent numerical oracles: eigensolvers that compute Bloch
eigenfrequencies from first principles, used to validate the asymptotic
formulas and to adjudicate their internal factor ambiguities."""

from .eig import EigResult, hermitian_eigensolve
from .fd import (
    FDGrid,
    discrete_inclusion_capacitance,
    fd_dirichlet_eigenvalues,
    lattice_green,
    mask_pattern,
)
from .pwe import PWEBasis, pwe_transmission_eigenvalues, sphere_indicator_fourier
from .gapscan import measure_gap_numeric

__all__ = [
    "EigResult",
    "FDGrid",
    "PWEBasis",
    "discrete_inclusion_capacitance",
    "fd_dirichlet_eigenvalues",
    "hermitian_eigensolve",
    "lattice_green",
    "mask_pattern",
    "measure_gap_numeric",
    "pwe_transmission_eigenvalues",
    "sphere_indicator_fourier",
]
