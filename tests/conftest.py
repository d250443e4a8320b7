import math

import numpy as np
import pytest

from bandscan import lattice, meshes, transmission
from bandscan.dirichlet import CELL_VOLUME
from bandscan.transmission import TransmissionParams


def random_order_two_pairs(rng, n_pairs, ratio_band=1e-3, max_attempts_factor=20):
    """Construct (k0, m0, ratio) triples that classify as exactly order two.

    k0 is drawn on the plane 2 k.m = |m|^2 (k0 = m/2 + in-plane offset) with
    |k0|/|m0| spread across both sides of sqrt(2)/2; pairs inside the
    exclusion band or of higher order are rejected.
    """
    out = []
    attempts = 0
    while len(out) < n_pairs and attempts < max_attempts_factor * n_pairs:
        attempts += 1
        m = rng.integers(-2, 3, size=3)
        if not m.any():
            continue
        m2 = float(m @ m)
        t = rng.standard_normal(3)
        t -= (t @ m) / m2 * m
        norm_t = np.linalg.norm(t)
        if norm_t < 1e-9:
            continue
        r = rng.uniform(0.05, 0.95) * math.sqrt(m2)
        k0 = m / 2.0 + (t / norm_t) * r
        m0 = tuple(int(x) for x in m)
        if lattice.classify_wavevector(k0) != (m0,):
            continue
        ratio = float(np.linalg.norm(k0)) / math.sqrt(m2)
        if abs(ratio - lattice.SQRT_HALF) <= ratio_band:
            continue
        out.append((k0, m0, ratio))
    if len(out) < n_pairs:
        raise RuntimeError("pair generation starved")
    return out


def at_volume_fraction(materials, f: float) -> TransmissionParams:
    """The penetrable sphere of volume fraction f: (4/3) pi a^3 = f |Pi|."""
    a = (f * CELL_VOLUME * 3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return TransmissionParams(materials=materials, a=a)


# PAPER.md's leading-order formulas, written out on their own as references for the
# two-mode model and the params that feed it.

def epsilon_nonexceptional(k, p) -> float:
    """Dirichlet order-one shift eps = 2 pi q a / (|k|^2 |Pi|) at a non-exceptional k."""
    k = np.asarray(k, dtype=float)
    return 2.0 * math.pi * p.q * p.a / (float(np.dot(k, k)) * CELL_VOLUME)


def epsilon_nonexceptional_transmission(params) -> float:
    """Transmission order-one shift eps = (alpha + beta) f / 2, the same at every
    non-exceptional k."""
    mats = params.materials
    return 0.5 * (mats.alpha + mats.beta) * params.f


def exceptional_splitting_check(k0, m0, p) -> tuple[float, float]:
    """The two Dirichlet eps roots (eps1, eps2) at delta = 0 from the 2x2 interaction matrix.

    det(2 eps |k0|^2 |Pi| Id - 4 pi q a J) = 0 with J the all-ones matrix;
    the eigenvalues of J give eps2 = 0 and eps1 = a_tilde / |k0|^2, the
    upper branch of the pair's model at delta_tilde = 0.
    """
    k0 = np.asarray(k0, dtype=float)
    k2 = float(np.dot(k0, k0))
    lam = np.linalg.eigvalsh(np.ones((2, 2)))
    eps = np.sort(4.0 * math.pi * p.q * p.a * lam / (2.0 * k2 * CELL_VOLUME))
    return float(eps[1]), float(eps[0])


def matrix_M_transmission(k0, m0, params, epsilon: float, delta: float) -> np.ndarray:
    """Leading-order 2x2 transmission interaction matrix, whose determinant vanishes on
    the dispersion surface (spherical inclusions)."""
    k0 = np.asarray(k0, dtype=float)
    m0 = lattice.as_shift(m0)
    k2 = float(np.dot(k0, k0))
    V = CELL_VOLUME
    mats = params.materials
    ab = mats.alpha + mats.beta
    off = mats.alpha + mats.beta * transmission.khat_dot(k0, m0)
    m2 = m0[0] ** 2 + m0[1] ** 2 + m0[2] ** 2
    M = 2.0 * epsilon * k2 * V * np.eye(2, dtype=complex)
    M -= params.f * k2 * V * np.array([[ab, off], [off, ab]], dtype=complex)
    M += delta * V * np.diag([0.0, float(m2)]).astype(complex)
    return M


def cube_mesh(side: float = 1.0, refinements: int = 3) -> meshes.TriangleMesh:
    """Axis-aligned cube of the given side, 12 * 4^refinements triangles: a flat-faced
    closed mesh for the BEM and for subdivision."""
    s = side / 2.0
    verts = np.array(
        [(x, y, z) for x in (-s, s) for y in (-s, s) for z in (-s, s)], dtype=float
    )
    # outward-oriented faces of the [0..7] = (x,y,z) bit-coded corners
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    mesh = meshes.TriangleMesh(verts, np.array(quads)[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3))
    for _ in range(refinements):
        mesh = meshes.subdivide(mesh)
    return mesh


def reference_bem_q(mesh: meshes.TriangleMesh) -> float:
    """q of the nonsymmetric collocation system A sigma = 1, solved by np.linalg.solve:
    A_ij = area_j / (4 pi r_ij) off the diagonal and A_jj = the flat self-potential / 4 pi,
    built a row at a time from the entry formula, with no symmetry or blocking."""
    from bandscan.capacitance import triangle_self_potential

    areas, cents, tris = mesh.areas(), mesh.centroids(), mesh.triangle_vertices()
    A = np.empty((len(cents), len(cents)))
    for i, c in enumerate(cents):
        r = np.sqrt(np.sum((c - cents) ** 2, axis=1))
        r[i] = 1.0
        A[i] = areas / (4.0 * math.pi * r)
        A[i, i] = triangle_self_potential(tris[i], c) / (4.0 * math.pi)
    sigma = np.linalg.solve(A, np.ones(len(A)))
    return float(sigma @ areas) / (4.0 * math.pi)


@pytest.fixture
def pair_rng():
    return np.random.default_rng(20260811)


def reference_cover_frequency(omega: float, p, direction=(1.0, math.sqrt(2.0), math.sqrt(3.0)),
                              tol: float = lattice.DEFAULT_TOL):
    """One omega at a time, the cover of `globalscan.cover_frequency` as
    (k, order, residual, attempt): the closed-form root along the ray, one
    `classify_wavevector` per attempt, a fixed nudge of the direction between
    attempts, and None once `globalscan.MAX_PERTURBATIONS` nudges all land on
    exceptional vectors."""
    from bandscan import globalscan

    A = p.epsilon(1.0)
    t = 0.5 * (omega + math.sqrt(omega * omega - 4.0 * A))
    d = np.asarray(direction, dtype=float)
    for attempt in range(globalscan.MAX_PERTURBATIONS + 1):
        k = t * (d / np.linalg.norm(d))
        if lattice.classify_wavevector(k, tol) == ():  # order one
            residual = abs((1.0 + p.epsilon(t)) * float(np.linalg.norm(k)) - omega)
            return tuple(float(x) for x in k), 1, residual, attempt
        d = d + (attempt + 1) * 1e-3 * np.array([1.0, -0.5, 0.25])
    return None
