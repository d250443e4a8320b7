import math

import numpy as np
import pytest

from conftest import cube_mesh

from bandscan import capacitance as cap
from bandscan import meshes
from bandscan.errors import ConfigError, DomainError, MeshError


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


class TestAnalytic:
    def test_sphere(self):
        r = cap.capacitance_sphere()
        assert r.q == 1.0
        assert r.method is cap.Method.ANALYTIC
        assert r.estimated_error == 0.0

    def test_ellipsoid_sphere_limit(self):
        r = cap.capacitance_ellipsoid(1.0, 1.0, 1.0)
        assert r.q == pytest.approx(1.0, rel=1e-10)

    def test_prolate_cross_check(self):
        r = cap.capacitance_ellipsoid(2.0, 1.0, 1.0)
        closed = prolate_spheroid_capacitance(2.0, 1.0)
        assert closed == pytest.approx(math.sqrt(3.0) / math.log(2.0 + math.sqrt(3.0)), rel=1e-14)
        assert r.q == pytest.approx(closed, rel=1e-13)

    def test_oblate_cross_check(self):
        r = cap.capacitance_ellipsoid(1.0, 1.0, 0.5)
        assert r.q == pytest.approx(oblate_spheroid_capacitance(1.0, 0.5), rel=1e-13)

    def test_ellipsoid_is_a_closed_form(self):
        # Carlson's R_F: exact up to rounding, so no error estimate to report
        r = cap.capacitance_ellipsoid(1.3, 1.0, 0.8)
        assert r.method is cap.Method.ANALYTIC
        assert r.estimated_error == 0.0

    def test_scaling(self):
        base = cap.capacitance_ellipsoid(2.0, 1.5, 1.0).q
        scaled = cap.capacitance_ellipsoid(6.0, 4.5, 3.0).q
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_axis_order_enforced(self):
        with pytest.raises(DomainError):
            cap.capacitance_ellipsoid(1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            cap.capacitance_ellipsoid(1.0, 0.5, 0.0)


class TestSelfIntegral:
    def _quadrature(self, tri, p):
        # polar-ray oracle: int_T dS/|p-y| = sum over apex triangles (p,A,B)
        # of int_0^1 |cross(Q-p, B-A)| / |Q-p| dt with Q = A + t (B-A);
        # independent of the edge-logarithm closed form
        from scipy.integrate import quad

        total = 0.0
        for i in range(3):
            A, B = tri[i], tri[(i + 1) % 3]

            def f(t, A=A, B=B):
                Q = A + t * (B - A)
                return np.linalg.norm(np.cross(Q - p, B - A)) / np.linalg.norm(Q - p)

            val, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
            total += val
        return total

    def test_matches_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            tri = rng.standard_normal((3, 3))
            centroid = tri.mean(axis=0)
            exact = cap.triangle_self_potential(tri, centroid)
            approx = self._quadrature(tri, centroid)
            assert exact == pytest.approx(approx, rel=1e-9)

    def test_stacked_matches_per_triangle(self):
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        tv, cents = mesh.triangle_vertices(), mesh.centroids()
        stacked = cap.triangle_self_potential(tv, cents)
        single = [cap.triangle_self_potential(t, c) for t, c in zip(tv, cents)]
        assert stacked.shape == (mesh.n_triangles,)
        np.testing.assert_allclose(stacked, single, rtol=1e-15, atol=0.0)


class TestBem:
    def test_assemble_off_diagonal_is_the_entry_formula(self):
        # bit for bit: area_j / (4 pi r_ij), r_ij summed over x, y, z in order
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        A, areas = cap._assemble(mesh)
        cents = mesh.centroids().tolist()
        inv4pi = 1.0 / (4.0 * math.pi)
        for i, ci in enumerate(cents):
            for j, cj in enumerate(cents):
                if i != j:
                    dx, dy, dz = (u - v for u, v in zip(ci, cj))
                    r = math.sqrt(dx * dx + dy * dy + dz * dz)
                    assert A[i, j] == inv4pi * areas[j] / r, (i, j)

    def test_factors_a_fortran_matrix_in_place(self, monkeypatch):
        # LAPACK takes a Fortran-ordered A without a copy, so the solve holds one n x n matrix
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        A, areas = cap._assemble(mesh)
        sigma = np.linalg.solve(np.ascontiguousarray(A), np.ones(len(A)))
        reference = float(sigma @ areas) / (4.0 * math.pi)
        seen = []
        lu_factor = cap.lu_factor
        monkeypatch.setattr(cap, "lu_factor", lambda a, **kw: seen.append(
            (a.flags.f_contiguous, kw)) or lu_factor(a, **kw))
        q = cap.capacitance_bem(mesh).q
        assert seen == [(True, {"overwrite_a": True})]
        assert q == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_unit_sphere(self):
        mesh = meshes.icosphere(3)
        r = cap.capacitance_bem(mesh)
        assert r.mesh_size == 1280
        assert r.method is cap.Method.BEM
        assert r.q == pytest.approx(1.0, rel=0.01)

    def test_refinement_monotone_for_sphere(self):
        qs = [cap.capacitance_bem(meshes.icosphere(s)).q for s in (1, 2, 3)]
        diffs = [abs(qs[0] - qs[1]), abs(qs[1] - qs[2])]
        assert diffs[0] > diffs[1]

    def test_scaling(self):
        mesh = meshes.icosphere(2)
        q1 = cap.capacitance_bem(mesh).q
        q3 = cap.capacitance_bem(meshes.TriangleMesh(3.0 * mesh.vertices, mesh.triangles)).q
        assert q3 == pytest.approx(3.0 * q1, rel=1e-10)

    def test_rotation_invariance(self):
        mesh = meshes.icosphere(2)
        th = 0.7
        R = np.array(
            [
                [math.cos(th), -math.sin(th), 0.0],
                [math.sin(th), math.cos(th), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        q1 = cap.capacitance_bem(mesh).q
        q2 = cap.capacitance_bem(meshes.TriangleMesh(mesh.vertices @ R.T, mesh.triangles)).q
        assert q2 == pytest.approx(q1, rel=1e-8)

    def test_cube_extrapolates_to_reference(self):
        # Richardson over two flat refinements; 0.6607 is the extrapolated
        # fixture value, not an exact constant
        q3 = cap.capacitance_bem(cube_mesh(1.0, 3)).q
        q4 = cap.capacitance_bem(cube_mesh(1.0, 4)).q
        extrapolated = 2.0 * q4 - q3
        assert extrapolated == pytest.approx(0.6607, rel=0.02)

    def test_refine_check_error_estimate(self):
        r = cap.capacitance_bem(meshes.icosphere(1), refine_check=True)
        assert math.isfinite(r.estimated_error)
        assert r.estimated_error < 0.05

    def test_positivity(self):
        for mesh in (meshes.icosahedron(), cube_mesh(0.3, 1)):
            assert cap.capacitance_bem(mesh).q > 0

    def test_panel_cap(self):
        with pytest.raises(DomainError):
            cap.capacitance_bem(meshes.icosphere(5))  # 20480 panels


class TestShapeFactor:
    def test_each_shape_is_its_solver(self, tmp_path):
        path = tmp_path / "s.off"
        meshes.write_off(meshes.icosphere(1), path)
        assert cap.shape_factor("sphere") == cap.capacitance_sphere()
        assert cap.shape_factor("ellipsoid", (2.0, 1.0, 1.0)) == cap.capacitance_ellipsoid(2, 1, 1)
        assert (cap.shape_factor("mesh", mesh=str(path), refine_check=True)
                == cap.capacitance_bem(meshes.icosphere(1), refine_check=True))

    def test_panel_cap_names_mesh(self, tmp_path):
        path = tmp_path / "big.off"
        meshes.write_off(meshes.icosphere(5), path)
        with pytest.raises(ConfigError, match=r"^mesh: .*20480 panels exceeds the dense-solve cap"):
            cap.shape_factor("mesh", mesh=str(path))
