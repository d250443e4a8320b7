"""Electrostatic capacitance of the unit-scaled inclusion (shape factor q).

Gaussian-units convention: the unit sphere has q = 1, and a shape scaled by
a has capacitance q*a.  Spheres and ellipsoids are analytic (the ellipsoid
through Carlson's R_F, with estimated_error = 0.0); arbitrary closed triangle
meshes go through a first-kind single-layer BEM (collocation at centroids, piecewise-constant
densities, analytic flat self-integral) whose symmetric kernel is assembled in blocks of rows
and factored in place by Cholesky, or by LU where sliver or long panels leave it indefinite.
`shape_factor` is the one path from a shape to its q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import blas, lapack, lu_factor, lu_solve

from .errors import ConfigError, DomainError, MeshError, NumericalError
from .meshes import TriangleMesh, read_off, subdivide, validate_mesh

#: Dense-solve cap on the number of panels.
MAX_PANELS = 10_000

#: Rows of S^T filled per pass: a block of 5,120 panels is at most 5 MB.
_BLOCK = 128

#: Reciprocal-condition threshold below which the system is rejected.
RCOND_MIN = 1e-12


class Method(Enum):
    ANALYTIC = "analytic"
    BEM = "bem"


@dataclass(frozen=True)
class CapacitanceResult:
    q: float
    method: Method
    mesh_size: int | None = None
    #: BEM: the change of q under one flat subdivision, not a bound: icosphere(4)'s
    #: q = 1.00031 exceeds 1, the q of the ball that holds its polyhedron
    estimated_error: float = 0.0

    def __post_init__(self):
        if not (self.q > 0.0):
            raise NumericalError(f"capacitance must be positive, got {self.q}")


def capacitance_sphere() -> CapacitanceResult:
    """Unit sphere: q = 1 exactly."""
    return CapacitanceResult(q=1.0, method=Method.ANALYTIC, estimated_error=0.0)


def capacitance_ellipsoid(a1: float, a2: float, a3: float) -> CapacitanceResult:
    """q = 2 / int_0^inf ds / sqrt((s+a1^2)(s+a2^2)(s+a3^2)) = 1 / R_F(a1^2, a2^2, a3^2).

    R_F is Carlson's symmetric elliptic integral of the first kind (B. C.
    Carlson, Numer. Algorithms 10, 13, 1995), so q is a closed form;
    semiaxes must satisfy a1 >= a2 >= a3 > 0.  Reduces to the sphere,
    prolate and oblate closed forms (cross-checked in the test suite).
    """
    if not (math.isfinite(a1) and a1 >= a2 >= a3 > 0.0):
        raise DomainError(
            f"semiaxes: must be finite and satisfy a1 >= a2 >= a3 > 0, got {(a1, a2, a3)}"
        )
    from scipy.special import elliprf  # lazily: the mesh path does not need it

    rf = float(elliprf(a1 * a1, a2 * a2, a3 * a3))
    if not 0.0 < rf < math.inf:  # a square past float64's range: R_F vanishes or overflows
        raise DomainError(f"semiaxes: their squares leave float64's range, got {(a1, a2, a3)}")
    return CapacitanceResult(q=1.0 / rf, method=Method.ANALYTIC, estimated_error=0.0)


def triangle_self_potential(tri: np.ndarray, point: np.ndarray) -> np.ndarray:
    """int_T dS / |point - y| for an in-plane point strictly inside T (so T is not degenerate).

    Takes stacked triangles (..., 3, 3) and points (..., 3) and returns one
    value per triangle.  Edge-wise closed form: each edge (a, b) contributes
    d * log((r+ + s+) / (r- + s-)) with s the tangential coordinates of the
    endpoints relative to the foot of the perpendicular and d the in-plane
    distance from the point to the edge line.
    """
    a = tri - point[..., None, :]
    b = np.roll(a, -1, axis=-2)
    t = np.roll(tri, -1, axis=-2) - tri
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    sa = np.sum(a * t, axis=-1)
    sb = np.sum(b * t, axis=-1)
    d = np.linalg.norm(a - sa[..., None] * t, axis=-1)
    ra = np.linalg.norm(a, axis=-1)
    rb = np.linalg.norm(b, axis=-1)
    return np.sum(d * np.log((rb + sb) / (ra + sa)), axis=-1)


def _assemble(mesh: TriangleMesh, full: bool = False) -> np.ndarray:
    """S, S_ij = 1 / (4 pi r_ij) and S_jj the flat self-potential over area_j, Fortran-ordered
    for LAPACK to factor in place: S^T by rows, only its upper triangle unless full."""
    cents = mesh.centroids()
    n, inv4pi = len(cents), 1.0 / (4.0 * math.pi)
    St = np.zeros((n, n))
    for lo in range(0, n, _BLOCK):
        first = 0 if full else lo
        r = St[lo:lo + _BLOCK, first:]  # row j: 1 / (4 pi r_ij) over i >= first
        for c in cents.T:
            r += np.subtract.outer(c[lo:lo + _BLOCK], c[first:]) ** 2
        np.sqrt(r, out=r)
        r[:, lo - first:][np.diag_indices(len(r))] = 1.0  # placeholder, replaced below
        np.divide(inv4pi, r, out=r)
    np.fill_diagonal(St, inv4pi * triangle_self_potential(mesh.triangle_vertices(), cents)
                     / mesh.areas())
    return St.T


def capacitance_bem(mesh: TriangleMesh, refine_check: bool = False) -> CapacitanceResult:
    """Capacitance of a closed mesh by first-kind single-layer collocation.

    The collocation matrix is S diag(area), so the charge at unit surface
    potential is 1^T S^-1 1 and q is that over 4 pi.  With refine_check,
    the mesh is midpoint-subdivided once (same polyhedral surface) and the
    change of q is reported as the discretization error estimate; a
    subdivided mesh past the cap is refused before anything is solved.
    """
    validate_mesh(mesh)
    n = mesh.n_triangles
    if n > MAX_PANELS:
        raise DomainError(f"{n} panels exceeds the dense-solve cap {MAX_PANELS}")
    if refine_check and 4 * n > MAX_PANELS:
        raise ConfigError(f"refine_check: subdividing {n} panels gives {4 * n}, "
                          f"past the dense-solve cap {MAX_PANELS}")
    S = _assemble(mesh)
    snorm = blas.dsymv(1.0, S, np.ones(n), lower=1).max()  # ||S||_1: every entry is positive
    c, info = lapack.dpotrf(S, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        rcond, info = lapack.dpocon(c, snorm, uplo="L")
        x, _ = lapack.dpotrs(c, np.ones(n), lower=1)
    else:  # S is indefinite, as long or sliver panels make it: fill it whole for the LU
        del S, c  # so that one n x n matrix is held
        lu, piv = lu_factor(_assemble(mesh, full=True), overwrite_a=True)
        rcond, info = lapack.dgecon(lu, snorm, norm="1")
        x = lu_solve((lu, piv), np.ones(n))
    if info != 0 or rcond < RCOND_MIN:
        raise NumericalError(f"BEM system ill-conditioned (rcond={rcond:.2e})")
    q = float(x.sum()) / (4.0 * math.pi)
    err = abs(capacitance_bem(subdivide(mesh)).q - q) if refine_check else math.nan
    return CapacitanceResult(q=q, method=Method.BEM, mesh_size=n, estimated_error=err)


def shape_factor(shape: str, semiaxes=None, mesh=None,
                 refine_check: bool = False) -> CapacitanceResult:
    """q of the inclusion `shape`: "sphere", "ellipsoid" of `semiaxes`, or "mesh" read from
    the OFF file at path `mesh`.

    The one place where a shape becomes q.  Every failure to use the mesh
    file (unreadable, not ASCII, malformed, open, too many panels) is one
    ConfigError that names the `mesh` field.
    """
    if shape == "sphere":
        return capacitance_sphere()
    if shape == "ellipsoid":
        return capacitance_ellipsoid(*semiaxes)
    try:
        return capacitance_bem(read_off(mesh), refine_check)
    except OSError as exc:
        raise ConfigError(f"mesh: cannot read {mesh!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"mesh: {mesh!r} is not ASCII text") from None
    except (MeshError, DomainError) as exc:
        raise ConfigError(f"mesh: {mesh!r}: {exc}") from None
