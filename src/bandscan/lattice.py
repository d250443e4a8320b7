"""Reciprocal-lattice geometry for the cubic cell [-pi, pi]^3.

The reciprocal lattice is Z^3.  A Bloch vector k is *exceptional of order n*
when n lattice points (counting the origin) lie on the sphere of radius |k|
centered at k, i.e. when the plane condition

    2 k . m = |m|^2,   m integer, m != 0,

has n - 1 solutions.  Everything here is elementary integer/vector geometry:
enumeration of the solutions, classification, the gap-geometry parameter

    nu = 4 |k0|^2 / |m0|^2 - 1  (>= 0 by Cauchy-Schwarz),

and the admissibility test: a local gap near omega = c|k0| exists iff
|k0|/|m0| < sqrt(2)/2, equivalently nu < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations, product
from typing import Sequence

import numpy as np

from .errors import DomainError

SQRT_HALF = math.sqrt(2.0) / 2.0

#: Default relative tolerance for the floating-point plane condition.
DEFAULT_TOL = 1e-9

#: Default half-width of the band excluded around |k0|/|m0| = sqrt(2)/2.
DEFAULT_EXCLUSION_BAND = 1e-6


class Verdict(Enum):
    GAP_PREDICTED = "GapPredicted"
    NO_GAP = "NoGap"
    BOUNDARY_EXCLUDED = "BoundaryExcluded"
    HIGHER_ORDER_EXCLUDED = "HigherOrderExcluded"


@dataclass(frozen=True)
class ExceptionalClass:
    """Classification of a Bloch vector: order and the witnessing shifts."""

    shifts: tuple[tuple[int, int, int], ...]

    @property
    def order(self) -> int:
        return 1 + len(self.shifts)


@dataclass(frozen=True)
class GapAdmissibility:
    verdict: Verdict
    ratio: float
    nu: float


def as_wavevector(name: str, k) -> np.ndarray:
    """The wave vector `name` as a finite float 3-vector, refused by name otherwise."""
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError(f"{name}: wave vector must have 3 components, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise DomainError(f"{name}: wave vector components must be finite")
    return k


def wavevector_norm(name: str, k) -> float:
    """|k| of the finite, nonzero wave vector `name`."""
    norm = float(np.linalg.norm(as_wavevector(name, k)))
    if norm == 0.0:
        raise DomainError(f"{name}: zero wave vector is not classifiable")
    return norm


def as_shift(m) -> tuple[int, int, int]:
    t = tuple(int(c) for c in m)
    if len(t) != 3 or any(c != float(o) for c, o in zip(t, m)):
        raise DomainError(f"m0: lattice shift must be an integer 3-vector, got {m!r}")
    if t == (0, 0, 0):
        raise DomainError("m0: lattice shift must be nonzero")
    return t


def integer_cube(bound: int, dtype=int) -> np.ndarray:
    """(N, 3) array of the integer points with |m|_inf <= bound, in lexicographic order."""
    rng = np.arange(-bound, bound + 1, dtype=dtype)
    return np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)


def stabiliser(k) -> tuple:
    """The group G of the R in `cubic_symmetries()` with R k = k, identity first, each R in
    nested tuples (the oracles cache by G).  At an order-two k0, G fixes m0 (R m0 is a shift
    of R k0 = k0), so the pair and the centred sphere lie in G's symmetric sector."""
    S = cubic_symmetries()
    fixed = S[np.all(S @ np.asarray(k, dtype=float) == k, axis=1)]
    return tuple(tuple(map(tuple, R)) for R in fixed.tolist())


def orbits(points: np.ndarray, group, period: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, number) of the orbits of `group` on `points` (N, 3), distinct mod `period`.

    `first` indexes, in the order of `points`, each orbit's point of smallest code (p mod
    `period` in mixed radix), and point i lies in the orbit of `points[first[number[i]]]`.
    The points are mapped in int32 on their (3, N) transpose: codes below 2^31 are exact."""
    radix = np.array([period * period, period, 1], dtype=np.int32)
    p = np.asarray(points, dtype=np.int32).T
    key = reduce(np.minimum, (radix @ (np.array(R, dtype=np.int32) @ p % period) for R in group))
    first = np.flatnonzero(radix @ (p % period) == key)
    order = np.argsort(key[first])
    return first, order[np.searchsorted(key[first], key, sorter=order)]


#: Cap on |k| of the candidate-shift search, whose box |m|_inf <= ceil(2|k|) + 1
#: holds about (4|k|)^3 points: `classify` peaks near 80 MB and `face-map` near 130 MB at it.
MAX_SEARCH_NORM = 36.0

#: Largest bound whose box stays cached: those up to it (|k| <= 11.5) take 2.6 MB in all.
#: Of the larger boxes only the last is kept, which a sweep in |k| such as `global-scan` reuses.
MAX_CACHED_BOUND = 24


def _search_box(name: str, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """`_candidate_box` for the vector `name` of norm `norm`, refused by name past the cap."""
    if not norm <= MAX_SEARCH_NORM:
        raise DomainError(f"{name}: the candidate-shift search at |k| = {norm:.6g} passes "
                          f"its cap |k| <= {MAX_SEARCH_NORM:g}")
    bound = math.ceil(2.0 * norm) + 1
    return (_candidate_box if bound <= MAX_CACHED_BOUND else _last_large_box)(bound)


@lru_cache(maxsize=MAX_CACHED_BOUND)
def _candidate_box(bound: int) -> tuple[np.ndarray, np.ndarray]:
    # the smallest signed points holding +-bound (int8 up to the cap's 73); |m|^2 in int32,
    # as int8 squares overflow from 12 and np.sqrt of int16 would be float32
    M = integer_cube(bound, np.min_scalar_type(-bound - 1))
    m2 = sum(M[:, j].astype(np.int32) ** 2 for j in range(3))
    keep = (m2 > 0) & (m2 <= bound * bound)
    return M[keep], m2[keep]


_last_large_box = lru_cache(maxsize=1)(_candidate_box.__wrapped__)


def enumerate_candidate_shifts(k, tol: float = DEFAULT_TOL) -> list[tuple[int, int, int]]:
    """All nonzero integer m with |2 k.m - |m|^2| <= tol * max(1, |m|^2).

    The search box |m| <= ceil(2|k|) + 1 is exhaustive: the plane condition
    plus Cauchy-Schwarz forces |m|^2 = 2 k.m <= 2|k||m|, and the +1 guard
    absorbs the tolerance.
    """
    knorm = wavevector_norm("k", k)
    require_nonnegative("tol", tol)
    M, m2 = _search_box("k", knorm)
    return _shifts(M[_on_plane(M, m2, as_wavevector("k", k), tol)])


def _on_plane(M: np.ndarray, m2, k: np.ndarray, tol: float):
    """|2 k.m - |m|^2| <= tol * max(1, |m|^2) per shift m in M (..., 3), the one evaluation of
    the plane condition.  It sums elementwise in one order, so a shift's residual does not
    depend on how many are tested with it (a BLAS product rounds one row unlike a block)."""
    resid = 2.0 * (M[..., 0] * k[0] + M[..., 1] * k[1] + M[..., 2] * k[2]) - m2
    return np.abs(resid) <= tol * np.maximum(1.0, m2)


def require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name}: must be finite and >= 0, got {value}")


def require_between(name: str, value: int, lo: int, hi: int) -> None:
    """Refuses field `name` outside [lo, hi]: the one text of each range, in config and oracle."""
    if not lo <= value <= hi:
        raise DomainError(f"{name}: must be >= {lo} and <= {hi}")


def _shifts(M: np.ndarray) -> list[tuple[int, int, int]]:
    return sorted(tuple(int(c) for c in m) for m in M)


def classify_wavevector(k, tol: float = DEFAULT_TOL) -> ExceptionalClass:
    """Order and shift set of a Bloch vector (order 1 = non-exceptional)."""
    return ExceptionalClass(tuple(enumerate_candidate_shifts(k, tol)))


def classify_wavevector_exact(k_rational: Sequence) -> ExceptionalClass:
    """Exact-arithmetic classification for rational k.

    Components may be Fractions, ints, or (numerator, denominator) pairs.
    With D the common denominator and p = D k, the plane condition is
    2 p.m = D |m|^2, evaluated on Python integers (object arrays), so the
    result is a deterministic knife-edge predicate for any input size.
    """
    comps = [Fraction(*c) if isinstance(c, tuple) else Fraction(c) for c in k_rational]
    if len(comps) != 3:
        raise DomainError("k: wave vector must have 3 components")
    if all(c == 0 for c in comps):
        raise DomainError("k: zero wave vector is not classifiable")
    D = math.lcm(*(c.denominator for c in comps))
    p = np.array([int(c * D) for c in comps], dtype=object)
    norm2 = sum(c * c for c in comps)
    M, m2 = _search_box("k", math.sqrt(float(norm2)))
    hits = 2 * (M.astype(object) @ p) == D * m2.astype(object)
    return ExceptionalClass(tuple(_shifts(M[hits])))


def gap_admissible(
    k0,
    m0,
    exclusion_band: float = DEFAULT_EXCLUSION_BAND,
    tol: float = DEFAULT_TOL,
) -> GapAdmissibility:
    """Local-gap admissibility of (k0, m0), m0 a shift of k0's one classification.

    GapPredicted when |k0|/|m0| < sqrt(2)/2 - band (equivalently nu < 1),
    NoGap above the band, BoundaryExcluded inside it, and
    HigherOrderExcluded when k0 lies on three or more cones.
    """
    knorm = wavevector_norm("k0", k0)
    m0 = as_shift(m0)
    _search_box("k0", knorm)  # past the cap, named here rather than as k by the search
    cls = classify_wavevector(k0, tol)
    if m0 not in cls.shifts:
        raise DomainError(f"(k0={tuple(as_wavevector('k0', k0).tolist())}, m0={m0}) violates "
                          "the plane condition")
    return shift_admissibility(knorm, m0, cls.order, exclusion_band)


def shift_admissibility(knorm: float, m0, order: int, exclusion_band: float) -> GapAdmissibility:
    """`gap_admissible` for a shift m0 of a k0 already classified.

    `knorm` is |k0| and `order` the order of its classification, so the
    shifts of one classification are judged without classifying k0 again.
    """
    require_nonnegative("exclusion_band", exclusion_band)
    mnorm = math.sqrt(m0[0] ** 2 + m0[1] ** 2 + m0[2] ** 2)
    ratio = knorm / mnorm
    nu_val = 4.0 * ratio * ratio - 1.0
    if order > 2:
        return GapAdmissibility(Verdict.HIGHER_ORDER_EXCLUDED, ratio, nu_val)
    if abs(ratio - SQRT_HALF) <= exclusion_band:
        return GapAdmissibility(Verdict.BOUNDARY_EXCLUDED, ratio, nu_val)
    if ratio < SQRT_HALF:
        return GapAdmissibility(Verdict.GAP_PREDICTED, ratio, nu_val)
    return GapAdmissibility(Verdict.NO_GAP, ratio, nu_val)


@dataclass(frozen=True)
class FaceGapMap:
    """Rasterized gap-admissibility map over a Brillouin-zone face.

    The face {k . m0 = |m0|^2 / 2} is parameterized by coordinates (t1, t2)
    along two orthonormal in-plane directions; the sample window is the
    square |t1|, |t2| <= half_width around the face center m0/2.  For
    m0 = (0,0,1) the coordinates are literally (k1, k2).
    """

    m0: tuple[int, int, int]
    t1: np.ndarray
    t2: np.ndarray
    flagged: np.ndarray  # bool, shape (len(t1), len(t2))
    half_width: float

    def flagged_area(self) -> float:
        """Flagged area: pixel count times the grid-spacing cell area."""
        n1, n2 = self.flagged.shape
        d1 = 2.0 * self.half_width / (n1 - 1) if n1 > 1 else 2.0 * self.half_width
        d2 = 2.0 * self.half_width / (n2 - 1) if n2 > 1 else 2.0 * self.half_width
        return float(self.flagged.sum()) * d1 * d2

    def flagged_fraction(self) -> float:
        """Flagged area divided by the window area (2*half_width)^2."""
        return self.flagged_area() / (2.0 * self.half_width) ** 2


def _face_basis(m0: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m0, dtype=float)
    # pick the coordinate axis least aligned with m0, Gram-Schmidt the rest
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(m)))] = 1.0
    e1 = probe - (probe @ m) / (m @ m) * m
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m / np.linalg.norm(m), e1)
    return e1, e2


#: Caps within about 256 MB: 86 bytes a pixel, and a candidate box growing as (4 half_width)^3.
MAX_FACE_SAMPLES = 1601
MAX_FACE_HALF_WIDTH = 8.0


def face_gap_region(
    m0,
    samples: int = 101,
    half_width: float = 1.0,
    exclusion_band: float = DEFAULT_EXCLUSION_BAND,
    tol: float = DEFAULT_TOL,
) -> FaceGapMap:
    """Boolean map of the GapPredicted region on the face k.m0 = |m0|^2/2.

    Every face point satisfies the plane condition for m0 by construction;
    a pixel is flagged when the classification there is exactly order two
    and |k|/|m0| < sqrt(2)/2 - band.  For m0 = (0,0,1) the flagged set is
    the disk k1^2 + k2^2 < 1/4.  Vectorized over blocks of pixels.
    """
    m0 = as_shift(m0)
    require_between("samples", samples, 2, MAX_FACE_SAMPLES)
    if not 0.0 < half_width <= MAX_FACE_HALF_WIDTH:  # NaN fails too
        raise DomainError(f"half_width: must be > 0 and <= {MAX_FACE_HALF_WIDTH}, "
                          f"got {half_width}")
    require_nonnegative("tol", tol)
    require_nonnegative("exclusion_band", exclusion_band)
    m = np.asarray(m0, dtype=float)
    m2 = float(m @ m)
    e1, e2 = _face_basis(m0)
    center = m / 2.0

    t1 = t2 = np.linspace(-half_width, half_width, samples)
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    K = center[None, None, :] + T1[..., None] * e1 + T2[..., None] * e2
    Kf = K.reshape(-1, 3)

    kmax = float(np.max(np.linalg.norm(Kf, axis=1)))
    ms, msq = _search_box("m0", kmax)
    limit = tol * np.maximum(1.0, msq)
    # The residual 2 k.m - |m|^2 is affine in (t1, t2), so a candidate whose
    # plane stays beyond its limit over the whole window never hits; the slack
    # covers rounding, far below the terms 2|k||m| and |m|^2 of the residual.
    nearest = np.abs(2.0 * (ms @ center) - msq) - 2.0 * half_width * (
        np.abs(ms @ e1) + np.abs(ms @ e2))
    near = nearest <= limit + 1e-9 * (msq + 2.0 * kmax * np.sqrt(msq))
    ms, msq, limit = ms[near], msq[near], limit[near]
    # residual of the plane condition for every (pixel, candidate) pair, a
    # block of pixels at a time, at the pixels whose ratio admits a gap
    ratio = np.linalg.norm(Kf, axis=1) / math.sqrt(m2)
    inside = np.flatnonzero(ratio < SQRT_HALF - exclusion_band)
    flagged = np.zeros(len(Kf), dtype=bool)
    step = max(1, 2**16 // len(ms))  # pixels per block of 2^16 residuals; m0 is always kept
    for lo in range(0, len(inside), step):
        pixels = inside[lo:lo + step]
        resid = np.abs(2.0 * (Kf[pixels] @ ms.T) - msq[None, :])
        flagged[pixels] = (resid <= limit[None, :]).sum(axis=1) == 1
    return FaceGapMap(
        m0=m0,
        t1=t1,
        t2=t2,
        flagged=flagged.reshape(samples, samples),
        half_width=half_width,
    )


@lru_cache(maxsize=1)
def cubic_symmetries() -> np.ndarray:
    """The 48 signed permutation matrices of the cube group, (48, 3, 3), identity first."""
    eye = np.eye(3, dtype=int)
    S = np.array([np.diag(s) @ eye[list(p)] for p in permutations(range(3))
                  for s in product((1, -1), repeat=3)])
    S.flags.writeable = False
    return S
