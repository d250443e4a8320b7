import math

import numpy as np
import pytest

from conftest import cube_mesh

from bandscan import meshes
from bandscan.errors import MeshError


def test_icosphere_counts_and_validity():
    for s, nt in ((0, 20), (1, 80), (3, 1280)):
        m = meshes.icosphere(s)
        assert m.n_triangles == nt
        meshes.validate_mesh(m)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)


def test_icosphere_volume_approaches_sphere():
    v = meshes.icosphere(3).enclosed_volume()
    assert v == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)


def test_cube_mesh():
    m = cube_mesh(2.0, refinements=2)
    meshes.validate_mesh(m)
    assert m.enclosed_volume() == pytest.approx(8.0, rel=1e-12)


def test_open_mesh_rejected():
    m = meshes.icosahedron()
    broken = meshes.TriangleMesh(m.vertices, m.triangles[:-1])
    with pytest.raises(MeshError, match="open|opposite"):
        meshes.validate_mesh(broken)


def test_flipped_triangle_rejected():
    m = meshes.icosahedron()
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(MeshError):
        meshes.validate_mesh(meshes.TriangleMesh(m.vertices, tris))


def test_inverted_orientation_rejected():
    m = meshes.icosahedron()
    with pytest.raises(MeshError, match="volume"):
        meshes.validate_mesh(meshes.TriangleMesh(m.vertices, m.triangles[:, ::-1]))


def test_bad_indices_rejected():
    with pytest.raises(MeshError):
        meshes.TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


def test_off_roundtrip(tmp_path):
    m = meshes.icosphere(1)
    path = tmp_path / "sphere.off"
    meshes.write_off(m, path)
    back = meshes.read_off(path)
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.vertices, m.vertices)  # repr round-trips floats


def test_off_comments_and_errors(tmp_path):
    p = tmp_path / "t.off"
    p.write_text("OFF\n# comment\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                 "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")
    m = meshes.read_off(p)
    meshes.validate_mesh(m)
    assert m.enclosed_volume() > 0

    bad = tmp_path / "bad.off"
    bad.write_text("NOT_OFF\n")
    with pytest.raises(MeshError):
        meshes.read_off(bad)

    quad = tmp_path / "quad.off"
    quad.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshError):
        meshes.read_off(quad)


def test_subdivide_preserves_geometry():
    m = cube_mesh(1.0, 0)
    fine = meshes.subdivide(m)
    assert fine.n_triangles == 4 * m.n_triangles
    assert fine.enclosed_volume() == pytest.approx(m.enclosed_volume(), rel=1e-12)
    meshes.validate_mesh(fine)


def test_ellipsoid_mesh_volume():
    m = meshes.ellipsoid_mesh(2.0, 1.0, 1.0, subdivisions=3)
    assert m.enclosed_volume() == pytest.approx(2.0 * 4.0 * math.pi / 3.0, rel=0.01)


def dict_loop_subdivide(mesh):
    """Midpoint refinement numbered by a dict, one edge at a time (the reference order)."""
    verts, cache, tris = [tuple(v) for v in mesh.vertices], {}, []

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = len(verts)
            verts.append(tuple(0.5 * (mesh.vertices[i] + mesh.vertices[j])))
        return cache[key]

    for a, b, c in mesh.triangles.tolist():
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(tris)


@pytest.mark.parametrize("mesh", [meshes.icosahedron(), cube_mesh(1.0, 0),
                                  cube_mesh(2.0, 2)], ids=["icosahedron", "cube", "cube-2"])
def test_subdivide_numbers_midpoints_in_first_met_order(mesh):
    verts, tris = dict_loop_subdivide(mesh)
    fine = meshes.subdivide(mesh)
    assert np.array_equal(fine.triangles, tris)
    assert np.array_equal(fine.vertices, verts)
    # projected, each midpoint is that vertex divided by its own norm
    sphere = meshes.subdivide(mesh, project_unit_sphere=True)
    assert np.array_equal(sphere.triangles, tris)
    n = len(mesh.vertices)
    expected = verts[n:] / np.array([np.linalg.norm(v) for v in verts[n:]])[:, None]
    assert np.array_equal(sphere.vertices[n:], expected)


def test_off_blocks_read_as_arrays(tmp_path):
    p = tmp_path / "t.off"
    p.write_text("OFF 4 4 0 # counts on the header line\n0 0 0 1 0 0\n0 1 0\n0 0 1\n"
                 "3 0 2 1 3 0 1 3\n3 0 3 2\n3 1 2 3\n")
    m = meshes.read_off(p)
    assert m.vertices.shape == (4, 3) and m.triangles.tolist()[1] == [0, 1, 3]
    for text, match in (("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n", "malformed"),
                        ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 x\n3 0 1 2\n", "malformed"),
                        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1.5\n", "malformed"),
                        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", "out of range")):
        p.write_text(text)
        with pytest.raises(MeshError, match=match):
            meshes.read_off(p)


def test_reused_directed_edge_rejected():
    m = meshes.icosahedron()
    tris = np.vstack([m.triangles, m.triangles[:1]])
    with pytest.raises(MeshError, match="used 2 times"):
        meshes.validate_mesh(meshes.TriangleMesh(m.vertices, tris))
