"""Scan configuration and the `key = value` text format of configs and reports.

Config files and gap reports are flat `key = value` lines, one field of a
dataclass each; '#' starts a comment and blank lines are skipped.  A value
is parsed by the type of its field: vectors are comma-separated
components, and `none` is None for an optional field.  Config keys match
the CLI flags, which are generated from the fields: `--name-with-dashes`,
and `--out` for `out_dir`.  A flag's text is parsed like the file value of
its key, and CLI flags override file values.  `ScanConfig.validated` refuses
a field that the problem or shape does not read, and `ScanConfig.params`
builds the problem's parameters.  Every refusal names the offending field:
ConfigError from the checks here, DomainError from the rules that `lattice`
and the params types own (samples, n, g_max and the pair of k0, m0, tol and
exclusion_band, which `twomode.order_two_admissibility` admits before any
shape solve; a, q and the materials).  An example is configs/example_gap.cfg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import lattice
from .dirichlet import MAX_N, MIN_N, DirichletParams, require_scale
from .errors import ConfigError
from .transmission import MAX_G_MAX, MIN_G_MAX, MaterialSpec, TransmissionParams


#: The material keys, named like the MaterialSpec fields; only transmission reads them.
_MATERIALS = tuple(f.name for f in fields(MaterialSpec))

#: Cap of `samples`: at about 50 bytes a sample, `bands` peaks near 80 MB at the cap.
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ScanConfig:
    problem: str = "dirichlet"
    k0: tuple[float, float, float] = (0.0, 0.0, 0.5)
    m0: tuple[int, int, int] = (0, 0, 1)
    a: float = 0.1
    q: float = 1.0
    shape: str = "sphere"
    semiaxes: tuple[float, float, float] | None = None
    mesh: str | None = None
    gamma_plus: float = 1.0
    gamma_minus: float = 1.0
    rho_plus: float = 1.0
    rho_minus: float = 1.0
    delta_tilde_min: float = -0.05
    delta_tilde_max: float = 0.05
    samples: int = 101
    verify: bool = False
    n: int = 32
    g_max: int = 3
    out_dir: str = "bandscan_out"
    exclusion_band: float = lattice.DEFAULT_EXCLUSION_BAND
    tol: float = lattice.DEFAULT_TOL

    def validated(self) -> "ScanConfig":
        """This config, after the checks that no lower layer makes: finite values, the problem
        and shape choices, the fields each reads, and the ranges of samples, n and g_max."""
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in parts):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if self.problem not in ("dirichlet", "transmission"):
            raise ConfigError(f"problem: must be dirichlet or transmission, got {self.problem!r}")
        if self.shape not in ("sphere", "ellipsoid", "mesh"):
            raise ConfigError(f"shape: unknown {self.shape!r}")
        if self.problem == "transmission" and self.shape != "sphere":
            raise ConfigError("shape: transmission supports spheres only")
        if self.verify and self.shape != "sphere":
            raise ConfigError(f"shape: the finite-difference oracle masks a sphere, so it "
                              f"cannot check shape = {self.shape}; use shape = sphere")
        # the fields that one problem or shape reads: needed there, refused elsewhere
        sound_soft = self.problem == "dirichlet"
        reads = {"q": sound_soft and self.shape == "sphere",
                 "semiaxes": self.shape == "ellipsoid", "mesh": self.shape == "mesh",
                 "n": sound_soft, "g_max": not sound_soft,
                 **dict.fromkeys(_MATERIALS, not sound_soft)}
        for name, read in reads.items():
            value = getattr(self, name)
            if read and value is None:
                raise ConfigError(f"{name}: required for shape = {self.shape}")
            if not read and value != getattr(ScanConfig, name):
                raise ConfigError(f"{name}: problem = {self.problem} with shape = {self.shape} "
                                  f"does not use it, got {value!r}")
        if not self.delta_tilde_min <= self.delta_tilde_max:
            raise ConfigError("delta_tilde_min: must not exceed delta_tilde_max")
        if not self.delta_tilde_max - self.delta_tilde_min < math.inf:
            raise ConfigError("delta_tilde_max: must lie within float64's range of delta_tilde_min")
        lattice.require_between("samples", self.samples, 1, MAX_SAMPLES)
        lattice.require_between("n", self.n, MIN_N, MAX_N)
        lattice.require_between("g_max", self.g_max, MIN_G_MAX, MAX_G_MAX)
        return self

    def params(self) -> DirichletParams | TransmissionParams:
        """The problem's parameters: the shape's q for Dirichlet, the materials for transmission."""
        if self.problem == "transmission":
            materials = MaterialSpec(**{name: getattr(self, name) for name in _MATERIALS})
            return TransmissionParams(materials=materials, a=self.a)
        if self.shape == "sphere":
            return DirichletParams(a=self.a, q=self.q)
        require_scale(self.a)  # before the shape's solve, which for a mesh takes seconds
        from .capacitance import shape_factor  # loads scipy, which a sphere does not need

        return DirichletParams(a=self.a, q=shape_factor(self.shape, self.semiaxes, self.mesh).q)


def _components(s: str, kind: str) -> list[str]:
    parts = [p.strip() for p in s.split(",")] if "," in s else s.split()
    if len(parts) != 3 or not all(parts):
        raise ConfigError(f"expected 3 {kind}components, got {s!r}")
    return parts


def _parse_vec3_float(s: str) -> tuple[float, float, float]:
    return tuple(float(p) for p in _components(s, ""))


def _parse_vec3_int(s: str) -> tuple[int, int, int]:
    out = []
    for p in _components(s, "integer "):
        v = float(p)
        if not (math.isfinite(v) and v == int(v)):
            raise ConfigError(f"component {p!r} is not an integer")
        out.append(int(v))
    return tuple(out)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


#: Parser of each field annotation; a trailing " | None" also accepts `none`.
_DECODERS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, float, float]": _parse_vec3_float,
    "tuple[int, int, int]": _parse_vec3_int,
}


def _decode(key: str, ftype: str, text: str):
    """The value of field `key`, annotated `ftype`, written as `text`."""
    base = ftype.removesuffix(" | None")
    if text == "none" and base != ftype:
        return None
    try:
        return _DECODERS[base](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def encode(value) -> str:
    """The text of a field value; `_decode` reads it back exactly."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(repr(float(x)) if isinstance(x, float) else repr(int(x)) for x in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


_CONFIG_TYPES = {f.name: f.type for f in fields(ScanConfig)}

#: The config keys: the ScanConfig fields, named like the CLI flags.
KNOWN_KEYS = frozenset(_CONFIG_TYPES)


def coerce(key: str, text: str):
    """The value of config key `key` written as `text`, in a file or a flag."""
    return _decode(key, _CONFIG_TYPES[key], text)


def read_fields(cls, lines, where) -> dict:
    """Typed values of the `key = value` lines that set fields of dataclass `cls`.

    Errors name `where` and the line number.
    """
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected key = value, got {line!r}")
        key, text = (s.strip() for s in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _decode(key, types[key], text)
        except ConfigError as exc:
            raise ConfigError(f"{where}:{lineno}: {exc}") from exc
    return values


def parse_config_file(path) -> dict:
    """Read a key = value config file into a typed dict."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return read_fields(ScanConfig, fh, path)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config: {path} is not ASCII text") from None


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> ScanConfig:
    """Merge file values and CLI overrides (overrides win), then validate."""
    cfg = ScanConfig()
    if file_values:
        cfg = replace(cfg, **file_values)
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        cfg = replace(cfg, **clean)
    return cfg.validated()
