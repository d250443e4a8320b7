"""Closed triangle meshes: OFF-style ASCII I/O, generators, validation.

File grammar (ASCII, '#' comments and blank lines ignored):

    OFF
    <n_vertices> <n_triangles> <n_edges-ignored>
    x y z                 (n_vertices lines, floats)
    3 i j k               (n_triangles lines, 0-based vertex indices)

Meshes must be closed and consistently oriented (every undirected edge
shared by exactly two triangles traversed in opposite directions) and
enclose positive volume with outward-pointing normals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import MeshError


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (nv, 3) float
    triangles: np.ndarray  # (nt, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must be an (n, 3) index array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_vertices(self) -> np.ndarray:
        return self.vertices[self.triangles]  # (nt, 3, 3)

    def centroids(self) -> np.ndarray:
        return self.triangle_vertices().mean(axis=1)

    def areas(self) -> np.ndarray:
        tv = self.triangle_vertices()
        norms = np.linalg.norm(np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]), axis=1)
        if np.any(norms <= 0):
            raise MeshError("degenerate (zero-area) triangle")
        return 0.5 * norms

    def enclosed_volume(self) -> float:
        tv = self.triangle_vertices()
        return float(np.einsum("ij,ij->", tv[:, 0], np.cross(tv[:, 1], tv[:, 2])) / 6.0)


def validate_mesh(mesh: TriangleMesh) -> None:
    """Raise MeshError unless the mesh is closed, oriented, and positive."""
    if mesh.n_triangles < 4:
        raise MeshError("a closed surface needs at least 4 triangles")
    t, nv = mesh.triangles, len(mesh.vertices)
    tails, heads = t.ravel(), np.roll(t, -1, axis=1).ravel()  # (a, b), (b, c), (c, a)
    if np.any(tails == heads):
        raise MeshError("triangle with repeated vertex")
    codes, counts = np.unique(tails * nv + heads, return_counts=True)
    if np.any(counts > 1):
        first = np.argmax(counts > 1)
        i, j = divmod(int(codes[first]), nv)
        raise MeshError(f"directed edge ({i},{j}) used {counts[first]} times; not oriented")
    rev = codes % nv * nv + codes // nv  # the code of (j, i)
    unpaired = codes[np.searchsorted(codes, rev) % len(codes)] != rev
    if np.any(unpaired):
        i, j = divmod(int(codes[np.argmax(unpaired)]), nv)
        raise MeshError(f"edge ({i},{j}) not shared by an opposite triangle; mesh open")
    mesh.areas()
    if mesh.enclosed_volume() <= 0.0:
        raise MeshError("enclosed volume not positive; check orientation")


def read_off(path) -> TriangleMesh:
    with open(path, "r", encoding="ascii") as fh:
        tokens = re.sub("#.*", "", fh.read()).split()
    if not tokens or tokens[0].upper() != "OFF":
        raise MeshError("missing OFF header")
    try:
        nv, nt = int(tokens[1]), int(tokens[2])
        start = 4 + 3 * nv  # after the edge count and the vertex block
        verts = np.array(tokens[4:start], dtype=float).reshape(nv, 3)
        faces = np.array(tokens[start : start + 4 * nt], dtype=int).reshape(nt, 4)
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed OFF file: {exc}") from exc
    if np.any(faces[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    return TriangleMesh(verts, faces[:, 1:])


def write_off(mesh: TriangleMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist())


def subdivide(mesh: TriangleMesh, project_unit_sphere: bool = False) -> TriangleMesh:
    """Midpoint 4-to-1 refinement, optionally reprojected onto the unit sphere; midpoints
    follow the vertices, in the order the edges (a, b), (b, c), (c, a) first meet them."""
    t, v = mesh.triangles, mesh.vertices
    ends = np.stack([t, np.roll(t, -1, axis=1)], axis=-1).reshape(-1, 2)
    _, first, inverse = np.unique(ends.min(axis=1) * len(v) + ends.max(axis=1),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    ab, bc, ca = (len(v) + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b = ends[first[order]].T
    mid = 0.5 * (v[a] + v[b])
    if project_unit_sphere:
        mid /= np.sqrt(np.vecdot(mid, mid))[:, None]  # rounds like np.linalg.norm of one row
    a, b, c = t.T
    tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriangleMesh(np.vstack([v, mid]), tris)


def icosahedron() -> TriangleMesh:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    tris = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=int,
    )
    return TriangleMesh(verts, tris)


def icosphere(subdivisions: int = 3) -> TriangleMesh:
    """Unit sphere with 20 * 4^subdivisions triangles (3 -> 1280)."""
    mesh = icosahedron()
    for _ in range(subdivisions):
        mesh = subdivide(mesh, project_unit_sphere=True)
    return mesh


def ellipsoid_mesh(a1: float, a2: float, a3: float, subdivisions: int = 4) -> TriangleMesh:
    sphere = icosphere(subdivisions)
    return TriangleMesh(sphere.vertices * np.array([a1, a2, a3]), sphere.triangles)
