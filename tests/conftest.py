import math

import numpy as np
import pytest

from bandscan import lattice, meshes


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
        cls = lattice.classify_wavevector(k0)
        if cls.order != 2 or cls.shifts[0] != m0:
            continue
        ratio = float(np.linalg.norm(k0)) / math.sqrt(m2)
        if abs(ratio - lattice.SQRT_HALF) <= ratio_band:
            continue
        out.append((k0, m0, ratio))
    if len(out) < n_pairs:
        raise RuntimeError("pair generation starved")
    return out


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


@pytest.fixture
def pair_rng():
    return np.random.default_rng(20260811)
