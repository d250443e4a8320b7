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

    def areas_and_normals(self) -> tuple[np.ndarray, np.ndarray]:
        tv = self.triangle_vertices()
        cross = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        if np.any(norms <= 0):
            raise MeshError("degenerate (zero-area) triangle")
        return 0.5 * norms, cross / norms[:, None]

    def enclosed_volume(self) -> float:
        tv = self.triangle_vertices()
        return float(np.einsum("ij,ij->", tv[:, 0], np.cross(tv[:, 1], tv[:, 2])) / 6.0)

    def transformed(self, matrix=None, scale: float = 1.0) -> "TriangleMesh":
        v = self.vertices * scale
        if matrix is not None:
            v = v @ np.asarray(matrix, dtype=float).T
        return TriangleMesh(v, self.triangles.copy())


def validate_mesh(mesh: TriangleMesh) -> None:
    """Raise MeshError unless the mesh is closed, oriented, and positive."""
    if mesh.n_triangles < 4:
        raise MeshError("a closed surface needs at least 4 triangles")
    edges: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            e = (int(e[0]), int(e[1]))
            if e[0] == e[1]:
                raise MeshError("triangle with repeated vertex")
            edges[e] = edges.get(e, 0) + 1
    for (i, j), cnt in edges.items():
        if cnt != 1:
            raise MeshError(f"directed edge ({i},{j}) used {cnt} times; not oriented")
        if edges.get((j, i), 0) != 1:
            raise MeshError(f"edge ({i},{j}) not shared by an opposite triangle; mesh open")
    mesh.areas_and_normals()
    if mesh.enclosed_volume() <= 0.0:
        raise MeshError("enclosed volume not positive; check orientation")


def read_off(path) -> TriangleMesh:
    with open(path, "r", encoding="ascii") as fh:
        tokens: list[str] = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise MeshError("missing OFF header")
    try:
        nv, nt = int(tokens[1]), int(tokens[2])
        pos = 4  # skip the edge count
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        tris = []
        for _ in range(nt):
            cnt = int(tokens[pos])
            if cnt != 3:
                raise MeshError("only triangle faces are supported")
            tris.append([int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])])
            pos += 4
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts, np.array(tris, dtype=int))


def write_off(mesh: TriangleMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def subdivide(mesh: TriangleMesh, project_unit_sphere: bool = False) -> TriangleMesh:
    """Midpoint 4-to-1 refinement; optionally reproject onto the unit sphere."""
    verts = [tuple(v) for v in mesh.vertices]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key in cache:
            return cache[key]
        p = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        if project_unit_sphere:
            p = p / np.linalg.norm(p)
        idx = len(verts)
        verts.append(tuple(p))
        cache[key] = idx
        return idx

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return TriangleMesh(np.array(verts, dtype=float), np.array(tris, dtype=int))


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


def cube_mesh(side: float = 1.0, refinements: int = 3) -> TriangleMesh:
    """Axis-aligned cube of the given side, 12 * 4^refinements triangles."""
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
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    mesh = TriangleMesh(verts, np.array(tris, dtype=int))
    for _ in range(refinements):
        mesh = subdivide(mesh)
    return mesh
