"""Electrostatic capacitance of the unit-scaled inclusion (shape factor q).

Gaussian-units convention: the unit sphere has q = 1, and a shape scaled by
a has capacitance q*a.  Spheres and ellipsoids are analytic; arbitrary
closed triangle meshes go through a first-kind single-layer BEM
(collocation at centroids, piecewise-constant densities, analytic flat
self-integral, dense direct solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .errors import DomainError, NumericalError
from .meshes import TriangleMesh, validate_mesh

#: Dense-solve cap on the number of panels.
MAX_PANELS = 10_000

#: Rows of the collocation matrix assembled per vectorised block.
_ROW_BLOCK = 512

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
    estimated_error: float = 0.0

    def __post_init__(self):
        if not (self.q > 0.0):
            raise NumericalError(f"capacitance must be positive, got {self.q}")


def capacitance_sphere() -> CapacitanceResult:
    """Unit sphere: q = 1 exactly."""
    return CapacitanceResult(q=1.0, method=Method.ANALYTIC, estimated_error=0.0)


def capacitance_ellipsoid(a1: float, a2: float, a3: float) -> CapacitanceResult:
    """q = 2 / int_0^inf ds / sqrt((s+a1^2)(s+a2^2)(s+a3^2)).

    Evaluated by adaptive quadrature; semiaxes must satisfy
    a1 >= a2 >= a3 > 0.  Reduces to the sphere, prolate and oblate closed
    forms (cross-checked in the test suite).
    """
    if not (math.isfinite(a1) and a1 >= a2 >= a3 > 0.0):
        raise DomainError(
            f"semiaxes must be finite and satisfy a1 >= a2 >= a3 > 0, got {(a1, a2, a3)}"
        )
    from scipy.integrate import quad  # lazily: costs about 0.2 s of import time

    def integrand(s):
        return 1.0 / math.sqrt((s + a1 * a1) * (s + a2 * a2) * (s + a3 * a3))

    val, abserr = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    q = 2.0 / val
    return CapacitanceResult(
        q=q,
        method=Method.ANALYTIC,
        estimated_error=2.0 * abserr / (val * val),
    )


def prolate_spheroid_capacitance(a1: float, a3: float) -> float:
    """Closed form for semiaxes (a1, a3, a3), a1 > a3."""
    if not a1 > a3 > 0:
        raise DomainError("prolate form needs a1 > a3 > 0")
    return math.sqrt(a1 * a1 - a3 * a3) / math.acosh(a1 / a3)


def oblate_spheroid_capacitance(a1: float, a3: float) -> float:
    """Closed form for semiaxes (a1, a1, a3), a1 > a3."""
    if not a1 > a3 > 0:
        raise DomainError("oblate form needs a1 > a3 > 0")
    return math.sqrt(a1 * a1 - a3 * a3) / math.acos(a3 / a1)


def triangle_self_potential(tri: np.ndarray, point: np.ndarray) -> float:
    """int_T dS / |point - y| for an in-plane point strictly inside T.

    Edge-wise closed form: each edge (a, b) contributes
    d * log((r+ + s+) / (r- + s-)) with s the tangential coordinates of the
    endpoints relative to the foot of the perpendicular and d the in-plane
    distance from the point to the edge line.
    """
    total = 0.0
    for i in range(3):
        a = tri[i]
        b = tri[(i + 1) % 3]
        t = b - a
        L = np.linalg.norm(t)
        if L <= 0:
            raise DomainError("degenerate triangle edge")
        t = t / L
        sa = float(np.dot(a - point, t))
        sb = float(np.dot(b - point, t))
        foot = a - sa * t
        d = float(np.linalg.norm(foot - point))
        ra = float(np.linalg.norm(a - point))
        rb = float(np.linalg.norm(b - point))
        if d <= 0:
            continue  # point on the edge line contributes nothing
        total += d * math.log((rb + sb) / (ra + sa))
    return total


def _assemble(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    areas, _ = mesh.areas_and_normals()
    cents = mesh.centroids()
    tv = mesh.triangle_vertices()
    n = mesh.n_triangles
    A = np.empty((n, n))
    inv4pi = 1.0 / (4.0 * math.pi)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        diff = cents[lo:hi, None, :] - cents[None, :, :]
        r = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(r[:, lo:hi], 1.0)  # placeholder, replaced below
        A[lo:hi] = inv4pi * areas[None, :] / r
    for i in range(n):
        A[i, i] = inv4pi * triangle_self_potential(tv[i], cents[i])
    return A, areas


def capacitance_bem(mesh: TriangleMesh, refine_check: bool = False) -> CapacitanceResult:
    """Capacitance of a closed mesh by first-kind single-layer collocation.

    q = total charge / (4 pi) at unit surface potential.  With
    refine_check, the mesh is midpoint-subdivided once (same polyhedral
    surface) and the difference of the two solutions is reported as the
    discretization error estimate.
    """
    validate_mesh(mesh)
    if mesh.n_triangles > MAX_PANELS:
        raise DomainError(
            f"{mesh.n_triangles} panels exceeds the dense-solve cap {MAX_PANELS}"
        )
    A, areas = _assemble(mesh)
    anorm = np.linalg.norm(A, 1)
    lu, piv = lu_factor(A)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond < RCOND_MIN:
        raise NumericalError(f"BEM system ill-conditioned (rcond={rcond:.2e})")
    sigma = lu_solve((lu, piv), np.ones(mesh.n_triangles))
    q = float(np.dot(sigma, areas)) / (4.0 * math.pi)
    if q <= 0:
        raise NumericalError(f"non-positive capacitance {q}; mesh orientation suspect")

    err = math.nan
    if refine_check:
        from .meshes import subdivide

        fine = capacitance_bem(subdivide(mesh), refine_check=False)
        err = abs(fine.q - q)
    return CapacitanceResult(
        q=q, method=Method.BEM, mesh_size=mesh.n_triangles, estimated_error=err
    )
