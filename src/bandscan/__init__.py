"""bandscan: dispersion asymptotics, exceptional Bloch vectors, and local
band gaps for acoustic waves in a cubic lattice of small inclusions, plus
the independent eigensolver oracles that validate them."""

__version__ = "0.1.0"

from . import capacitance, config, dirichlet, globalscan, lattice, meshes, oracle
from . import transmission, twomode
from .dirichlet import DirichletParams
from .errors import (
    BandscanError,
    ConfigError,
    DomainError,
    MeshError,
    NumericalError,
    ResolutionError,
    TrackingError,
)
from .lattice import (
    ExceptionalClass,
    GapAdmissibility,
    Verdict,
    classify_wavevector,
    classify_wavevector_exact,
    enumerate_candidate_shifts,
    face_gap_region,
    gap_admissible,
    nu,
)
from .transmission import MaterialSpec, TransmissionParams
from .twomode import BranchCurve, GapInterval, GapStatus, TwoModeModel

__all__ = [
    "BandscanError",
    "BranchCurve",
    "ConfigError",
    "DirichletParams",
    "DomainError",
    "ExceptionalClass",
    "GapAdmissibility",
    "GapInterval",
    "GapStatus",
    "MaterialSpec",
    "MeshError",
    "NumericalError",
    "ResolutionError",
    "TrackingError",
    "TransmissionParams",
    "TwoModeModel",
    "Verdict",
    "capacitance",
    "classify_wavevector",
    "classify_wavevector_exact",
    "config",
    "dirichlet",
    "enumerate_candidate_shifts",
    "face_gap_region",
    "gap_admissible",
    "globalscan",
    "lattice",
    "meshes",
    "nu",
    "oracle",
    "transmission",
    "twomode",
]
