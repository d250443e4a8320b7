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

#: Largest tolerance: the search ball |m| <= ceil(2|k|) + 1 holds every shift within tol of
#: k's plane, |m| <= 2|k| / (1 - tol), for tol <= 1/(2|k| + 1), and 1/73 at the cap |k| <= 36.
MAX_TOL = 0.01

#: Default half-width of the band excluded around |k0|/|m0| = sqrt(2)/2.
DEFAULT_EXCLUSION_BAND = 1e-6


class Verdict(Enum):
    GAP_PREDICTED = "GapPredicted"
    NO_GAP = "NoGap"
    BOUNDARY_EXCLUDED = "BoundaryExcluded"
    HIGHER_ORDER_EXCLUDED = "HigherOrderExcluded"


@dataclass(frozen=True)
class GapAdmissibility:
    """The verdict on the pair (k0, m0) it judged, with the pair's ratio |k0|/|m0| and nu."""

    k0: tuple[float, float, float]
    m0: tuple[int, int, int]
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
    """|k| of the finite, nonzero wave vector `name`, inf past float64's range."""
    with np.errstate(over="ignore"):  # every caller refuses it as past the search cap
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
    bound = int(_box_bound(norm))
    return (_candidate_box if bound <= MAX_CACHED_BOUND else _last_large_box)(bound)


def _box_bound(norm):  # ceil(2|k|) + 1, of one norm or an array: k's box |m|_inf <= bound
    return np.ceil(2.0 * norm) + 1


@lru_cache(maxsize=MAX_CACHED_BOUND)
def _candidate_box(bound: int) -> tuple[np.ndarray, np.ndarray]:
    # the smallest signed points holding +-bound (int8 up to the cap's 73); |m|^2 in int32,
    # as int8 squares overflow from 12 and np.sqrt of int16 would be float32
    M = integer_cube(bound, np.min_scalar_type(-bound - 1))
    m2 = sum(M[:, j].astype(np.int32) ** 2 for j in range(3))
    keep = (m2 > 0) & (m2 <= bound * bound)
    return M[keep], m2[keep]


_last_large_box = lru_cache(maxsize=1)(_candidate_box.__wrapped__)


def order_one(K: np.ndarray, norms: np.ndarray, tol: float) -> np.ndarray:
    """Per row k of K (R, 3) of norm `norms`, whether `classify_wavevector(k, tol)` has order
    one: no shift of k's search box is on its plane.  About 2^16 residuals go at once."""
    clear = np.empty(len(K), dtype=bool)
    bounds = _box_bound(norms)
    for bound in np.unique(bounds):
        rows = np.flatnonzero(bounds == bound)
        M, m2 = _search_box("k", float(norms[rows[0]]))
        for block in np.array_split(rows, math.ceil(len(rows) * len(M) / 2**16)):
            clear[block] = ~_on_plane(M, m2, K[block, None, :], tol).any(axis=1)
    return clear


def _on_plane(M: np.ndarray, m2, k: np.ndarray, tol: float):
    """|2 k.m - |m|^2| <= tol * max(1, |m|^2) per shift m in M (..., 3) and k (..., 3), broadcast:
    the one evaluation of the plane condition.  It sums elementwise in one order, so a residual
    does not depend on how many are tested with it (BLAS rounds one row unlike a block)."""
    resid = 2.0 * (M[..., 0] * k[..., 0] + M[..., 1] * k[..., 1] + M[..., 2] * k[..., 2]) - m2
    return np.abs(resid) <= tol * np.maximum(1.0, m2)


def require_tol(tol: float) -> None:
    """Refuses a plane-condition tolerance outside [0, MAX_TOL], where the search misses none."""
    if not 0.0 <= tol <= MAX_TOL:  # NaN fails too
        raise DomainError(f"tol: must be finite and >= 0 and <= {MAX_TOL}, got {tol}")


def require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name}: must be finite and >= 0, got {value}")


def require_between(name: str, value: int, lo: int, hi: int) -> None:
    """Refuses field `name` outside [lo, hi]: the one text of each range, in config and oracle."""
    if not lo <= value <= hi:
        raise DomainError(f"{name}: must be >= {lo} and <= {hi}")


def _shifts(M: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(tuple(int(c) for c in m) for m in M))


def classify_wavevector(k, tol: float = DEFAULT_TOL) -> tuple[tuple[int, int, int], ...]:
    """The classification of k: the sorted nonzero integer m with |2 k.m - |m|^2| <= tol *
    max(1, |m|^2).  k has order 1 + len(shifts) (order 1 = non-exceptional).

    The search ball |m| <= ceil(2|k|) + 1 is exhaustive: the plane condition
    plus Cauchy-Schwarz forces (1 - tol)|m|^2 <= 2 k.m <= 2|k||m|, and
    `require_tol` keeps 2|k| / (1 - tol) inside the ball.
    """
    knorm = wavevector_norm("k", k)
    require_tol(tol)
    M, m2 = _search_box("k", knorm)
    return _shifts(M[_on_plane(M, m2, as_wavevector("k", k), tol)])


def classify_wavevector_exact(k_rational: Sequence) -> tuple[tuple[int, int, int], ...]:
    """Exact-arithmetic `classify_wavevector` for rational k: its sorted shifts.

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
    return _shifts(M[hits])


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
    shifts = classify_wavevector(k0, tol)
    if m0 not in shifts:
        raise DomainError(f"(k0={tuple(as_wavevector('k0', k0).tolist())}, m0={m0}) violates "
                          "the plane condition")
    return shift_admissibility(k0, m0, 1 + len(shifts), exclusion_band)


def shift_admissibility(k0, m0, order: int, exclusion_band: float) -> GapAdmissibility:
    """`gap_admissible` for a shift m0 of a k0 already classified.

    `order` is the order of k0's classification, so the shifts of one
    classification are judged without classifying k0 again.
    """
    require_nonnegative("exclusion_band", exclusion_band)
    k0 = np.asarray(k0, dtype=float)
    ratio = float(np.linalg.norm(k0)) / math.sqrt(m0[0] ** 2 + m0[1] ** 2 + m0[2] ** 2)
    if order > 2:
        verdict = Verdict.HIGHER_ORDER_EXCLUDED
    elif abs(ratio - SQRT_HALF) <= exclusion_band:
        verdict = Verdict.BOUNDARY_EXCLUDED
    else:
        verdict = Verdict.GAP_PREDICTED if ratio < SQRT_HALF else Verdict.NO_GAP
    return GapAdmissibility(tuple(k0.tolist()), m0, verdict, ratio, 4.0 * ratio * ratio - 1.0)


@dataclass(frozen=True)
class FaceGapMap:
    """Rasterized gap-admissibility map over a Brillouin-zone face.

    The face {k . m0 = |m0|^2 / 2} is parameterized by coordinates (t1, t2)
    along two orthonormal in-plane directions, both sampled at `t`; the sample
    window is the square |t1|, |t2| <= half_width around the face center m0/2.
    For m0 = (0,0,1) the coordinates are literally (k1, k2).
    """

    m0: tuple[int, int, int]
    t: np.ndarray
    flagged: np.ndarray  # bool, shape (len(t), len(t)): t1 by row, t2 by column
    half_width: float

    def _cells(self) -> float:
        """Flagged pixels by the trapezoid rule (edges 1/2, corners 1/4): (len(t) - 1)^2 at most."""
        w = np.r_[0.5, np.ones(len(self.t) - 2), 0.5]
        return float(w @ self.flagged @ w)

    def flagged_area(self) -> float:
        """Flagged area: the trapezoid count of flagged pixels times the grid cell area."""
        d = 2.0 * self.half_width / (len(self.t) - 1)
        return self._cells() * d * d

    def flagged_fraction(self) -> float:
        """Flagged area divided by the window area (2*half_width)^2, from the trapezoid count."""
        return self._cells() / (len(self.t) - 1) ** 2


def _face_basis(m0: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m0, dtype=float)
    # pick the coordinate axis least aligned with m0, Gram-Schmidt the rest
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(m)))] = 1.0
    e1 = probe - (probe @ m) / (m @ m) * m
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m / np.linalg.norm(m), e1)
    return e1, e2


#: Caps within about 256 MB: 64 bytes a pixel, and a candidate box growing as (4 half_width)^3.
MAX_FACE_RESOLUTION = 1601
MAX_FACE_HALF_WIDTH = 8.0


def face_gap_region(
    m0,
    resolution: int = 101,
    half_width: float = 1.0,
    exclusion_band: float = DEFAULT_EXCLUSION_BAND,
    tol: float = DEFAULT_TOL,
) -> FaceGapMap:
    """Boolean map of the GapPredicted region on the face k.m0 = |m0|^2/2.

    Every face point satisfies the plane condition for m0 by construction, so
    m0 is not tested; a pixel is flagged when no other shift is on its plane
    within tol (order two) and |k|/|m0| < sqrt(2)/2 - band.  For m0 = (0,0,1)
    the flagged set is the disk k1^2 + k2^2 < 1/4.  Vectorized over blocks of rows.
    """
    m0 = as_shift(m0)
    require_between("resolution", resolution, 2, MAX_FACE_RESOLUTION)
    if not 0.0 < half_width <= MAX_FACE_HALF_WIDTH:  # NaN fails too
        raise DomainError(f"half_width: must be > 0 and <= {MAX_FACE_HALF_WIDTH}, "
                          f"got {half_width}")
    require_tol(tol)
    require_nonnegative("exclusion_band", exclusion_band)
    m = np.asarray(m0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge m0: kmax inf or nan, refused
        m2 = float(m @ m)
        e1, e2 = _face_basis(m0)
        center = m / 2.0
        t = np.linspace(-half_width, half_width, resolution)
        Kf = ((center + t[:, None, None] * e1) + t[None, :, None] * e2).reshape(-1, 3)
        norms = np.linalg.norm(Kf, axis=1)
    kmax = float(np.max(norms))
    ms, msq = _search_box("m0", kmax)
    # The residual 2 k.m - |m|^2 is affine in (t1, t2), so a candidate whose plane stays
    # beyond its limit tol * max(1, |m|^2) over the whole window never hits; the slack
    # covers rounding, far below the terms 2|k||m| and |m|^2 of the residual.
    nearest = np.abs(2.0 * (ms @ center) - msq) - 2.0 * half_width * (
        np.abs(ms @ e1) + np.abs(ms @ e2))
    reach = tol * np.maximum(1.0, msq) + 1e-9 * (msq + 2.0 * kmax * np.sqrt(msq))
    near = (nearest <= reach) & (ms != m0).any(axis=1)
    ms, msq, reach = ms[near].astype(float), msq[near], reach[near]
    # Along a row the residual at pixel j is r0 + slope * j, so it is within reach on one
    # interval (all or none of the row where slope = 0), clipped to the row's span of pixels
    # where the ratio admits a gap (hits between them are never read): `_on_plane` decides
    # there only.
    inside = norms / math.sqrt(m2) < SQRT_HALF - exclusion_band
    slope = 2.0 * (ms @ e2) * (2.0 * half_width / (resolution - 1))  # per pixel along a row
    hit = np.zeros(len(Kf), dtype=bool)
    step = max(1, 2**18 // max(len(ms), resolution))  # rows per 2^18 (row, candidate) pairs
    cols = np.arange(resolution)
    for lo in range(0, resolution, step):
        block = slice(lo * resolution, (lo + step) * resolution)
        held = inside[block].reshape(-1, resolution)
        r0 = 2.0 * (Kf[block][::resolution] @ ms.T) - msq
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = ((-reach - r0) / slope, (reach - r0) / slope)
        span = (np.where(held, cols, resolution).min(1, keepdims=True),
                np.where(held, cols, -1).max(1, keepdims=True))
        first = np.fmax(np.ceil(np.minimum(*ends)), span[0])  # NaN (0/0) counts as all the span
        last = np.fmin(np.floor(np.maximum(*ends)), span[1])
        row, cand = np.nonzero(last >= first)
        start = row * resolution + first[row, cand].astype(np.intp)  # pixels of the block
        count = (last - first)[row, cand].astype(np.intp) + 1
        # the strips' pixels go about 2^18 at a time, however wide the tolerance makes them
        total = np.cumsum(np.r_[0, count])
        cuts = np.searchsorted(total, np.r_[np.arange(0, total[-1], 2**18), total[-1]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            pixel = np.arange(total[a], total[b]) - np.repeat(total[a:b] - start[a:b], count[a:b])
            c = np.repeat(cand[a:b], count[a:b])
            hit[block][pixel[_on_plane(ms[c], msq[c], Kf[block][pixel], tol)]] = True
    return FaceGapMap(m0, t, (inside & ~hit).reshape(resolution, resolution), half_width)


@lru_cache(maxsize=1)
def cubic_symmetries() -> np.ndarray:
    """The 48 signed permutation matrices of the cube group, (48, 3, 3), identity first."""
    eye = np.eye(3, dtype=int)
    S = np.array([np.diag(s) @ eye[list(p)] for p in permutations(range(3))
                  for s in product((1, -1), repeat=3)])
    S.flags.writeable = False
    return S
