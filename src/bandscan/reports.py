"""Gap reports and CSV emission.

Report files use the `key = value` format of config files (see `config`),
one line per field in field order.  Floats serialize via repr and parse
back bit-exactly, vectors are comma-joined components, missing optionals
are the literal `none`; `schema_version` is present in every report and
bumps whenever a field is added or changed.  CSV files always carry a
header line and rows in deterministic order; the CSV writers take an open
text stream, a file or stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import encode, read_fields
from .errors import ConfigError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GapReport:
    problem: str
    k0: tuple[float, float, float]
    m0: tuple[int, int, int]
    a: float
    verdict: str
    status: str
    nu: float
    ratio: float
    schema_version: int = SCHEMA_VERSION
    q: float | None = None
    gamma_plus: float | None = None
    gamma_minus: float | None = None
    rho_plus: float | None = None
    rho_minus: float | None = None
    nu_minus: float | None = None
    nu_plus: float | None = None
    a_tilde: float | None = None
    mu: float | None = None
    k0_tilde_norm: float | None = None
    predicted_lo_over_c: float | None = None
    predicted_hi_over_c: float | None = None
    measured_lo_over_c: float | None = None
    measured_hi_over_c: float | None = None
    rel_discrepancy: float | None = None

    def to_text(self) -> str:
        lines = ["# bandscan gap report"]
        lines += [f"{f.name} = {encode(getattr(self, f.name))}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GapReport":
        values = read_fields(cls, text.splitlines(), "report")
        for f in fields(cls):
            if f.name not in values:
                raise ConfigError(f"report missing field {f.name!r}")
        return cls(**values)


def _write_columns(fh, header: str, *cols) -> None:
    """The CSV of `header` and one row per index of the columns `cols`, each value by repr."""
    fh.write(header + "\n")
    for lo in range(0, len(cols[0]), 65_536):  # a long table is never held as text at once
        rows = zip(*(map(repr, c[lo:lo + 65_536].tolist()) for c in cols))
        fh.write("\n".join(map(",".join, rows)) + "\n")


def write_branch_csv(delta_tilde, omega_minus, omega_plus, fh) -> None:
    """The rows of `TwoModeModel.scan`: both branches over c at each delta_tilde."""
    _write_columns(fh, "delta_tilde,omega_minus_over_c,omega_plus_over_c",
                   delta_tilde, omega_minus, omega_plus)


def write_face_map_csv(face_map, fh) -> None:
    fh.write("k1,k2,gap_flag\n")
    # each t is formatted once per axis, not once per pixel; a row's flags pick its tails
    off, on = (np.array([f",{t2!r},{flag}\n" for t2 in face_map.t.tolist()], dtype=object)
               for flag in (0, 1))
    for t1, row in zip(face_map.t.tolist(), face_map.flagged):
        head = repr(t1)
        fh.write(head + head.join(np.where(row, on, off).tolist()))


def write_global_scan_csv(omega, K, residual, fh) -> None:
    """The rows of `globalscan.global_scan`; each wave vector is non-exceptional (order 1)."""
    _write_columns(fh, "omega_over_c,k1,k2,k3,order,residual",
                   omega, *K.T, np.broadcast_to(1, len(omega)), residual)
