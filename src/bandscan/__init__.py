"""bandscan: dispersion asymptotics, exceptional Bloch vectors, and local
band gaps for acoustic waves in a cubic lattice of small inclusions, plus
the independent eigensolver oracles that validate them."""

__version__ = "0.1.0"

from . import config, dirichlet, globalscan, lattice, meshes, transmission, twomode
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
    GapAdmissibility,
    Verdict,
    classify_wavevector,
    classify_wavevector_exact,
    face_gap_region,
    gap_admissible,
)
from .transmission import MaterialSpec, TransmissionParams
from .twomode import GapInterval, GapStatus, TwoModeModel

__all__ = [
    "BandscanError",
    "ConfigError",
    "DirichletParams",
    "DomainError",
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
    "face_gap_region",
    "gap_admissible",
    "globalscan",
    "lattice",
    "meshes",
    "oracle",
    "transmission",
    "twomode",
]


def __getattr__(name):
    """Import `oracle` and `capacitance`, which load scipy, on first use."""
    if name in ("capacitance", "oracle"):
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
