"""Gap reports and CSV emission.

Report files are flat `key = value` text with one field per line, '#'
comments allowed.  Floats serialize via repr and parse back bit-exactly,
vectors are comma-joined components, missing optionals are the literal
`none`; `schema_version` is present in every report and bumps whenever a
field is added or changed.  CSV files always carry a header line and rows
in deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .twomode import BranchCurve, GapInterval

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
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name} = {_encode(v)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GapReport":
        raw: dict[str, str] = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed report line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            raw[key] = val
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                raise ConfigError(f"report missing field {f.name!r}")
            kwargs[f.name] = _decode(raw[f.name], f.type)
        return cls(**kwargs)


def _encode(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) if isinstance(x, float) else repr(int(x)) for x in v)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _decode(s: str, ftype: str):
    if s == "none":
        return None
    if "tuple[int" in ftype:
        return tuple(int(t) for t in s.split(","))
    if "tuple[float" in ftype:
        return tuple(float(t) for t in s.split(","))
    if ftype.startswith("int"):
        return int(s)
    if ftype.startswith("float"):
        return float(s)
    return s


def report_from_prediction(
    problem: str,
    k0,
    m0,
    a: float,
    verdict,
    status,
    nu: float,
    ratio: float,
    interval: GapInterval | None,
    **extra,
) -> GapReport:
    pred_lo = interval.lo_over_c if interval is not None else None
    pred_hi = interval.hi_over_c if interval is not None else None
    return GapReport(
        problem=problem,
        k0=tuple(float(x) for x in k0),
        m0=tuple(int(x) for x in m0),
        a=float(a),
        verdict=str(getattr(verdict, "value", verdict)),
        status=str(getattr(status, "value", status)),
        nu=float(nu),
        ratio=float(ratio),
        predicted_lo_over_c=pred_lo,
        predicted_hi_over_c=pred_hi,
        **extra,
    )


def write_branch_csv(curve: BranchCurve, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("delta_tilde,omega_minus_over_c,omega_plus_over_c\n")
        for dt, lo, hi in zip(
            curve.delta_tilde, curve.omega_minus_over_c, curve.omega_plus_over_c
        ):
            fh.write(f"{float(dt)!r},{float(lo)!r},{float(hi)!r}\n")


def write_face_map_csv(face_map, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("k1,k2,gap_flag\n")
        for i, t1 in enumerate(face_map.t1):
            for j, t2 in enumerate(face_map.t2):
                fh.write(f"{float(t1)!r},{float(t2)!r},{int(face_map.flagged[i, j])}\n")


def write_comparison_csv(rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("quantity,asymptotic,numeric,rel_diff\n")
        for name, asym, num, rel in rows:
            fh.write(f"{name},{float(asym)!r},{float(num)!r},{float(rel)!r}\n")


def write_global_scan_csv(rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("omega_over_c,k1,k2,k3,order,residual\n")
        for om, k, order, resid in rows:
            fh.write(
                f"{float(om)!r},{float(k[0])!r},{float(k[1])!r},{float(k[2])!r},"
                f"{int(order)},{float(resid)!r}\n"
            )
