import math

import numpy as np
import pytest

from conftest import cube_mesh, reference_bem_q

from bandscan import capacitance as cap
from bandscan import meshes
from bandscan.errors import ConfigError, DomainError, MeshError, NumericalError


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
        # bit for bit on the lower triangle: 1 / (4 pi r_ij), r_ij summed over x, y, z in
        # order; the diagonal is the flat self-potential over the panel's area
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        S = cap._assemble(mesh)
        areas, cents = mesh.areas(), mesh.centroids()
        inv4pi = 1.0 / (4.0 * math.pi)
        for i, ci in enumerate(cents.tolist()):
            for j, cj in enumerate(cents[:i].tolist()):
                dx, dy, dz = (u - v for u, v in zip(ci, cj))
                assert S[i, j] == inv4pi / math.sqrt(dx * dx + dy * dy + dz * dz), (i, j)
        self_potential = cap.triangle_self_potential(mesh.triangle_vertices(), cents)
        np.testing.assert_array_equal(np.diag(S), inv4pi * self_potential / areas)

    def test_factors_a_fortran_matrix_in_place(self, monkeypatch):
        # LAPACK takes the Fortran-ordered S without a copy, so the solve holds one n x n matrix
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        seen = []
        dpotrf = cap.lapack.dpotrf

        def spy(a, **kw):
            c, info = dpotrf(a, **kw)
            seen.append((a.flags.f_contiguous, np.shares_memory(a, c), kw["lower"], info))
            return c, info

        monkeypatch.setattr(cap.lapack, "dpotrf", spy)
        q = cap.capacitance_bem(mesh).q
        assert seen == [(True, True, 1, 0)]
        assert q == pytest.approx(reference_bem_q(mesh), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("mesh", [
        pytest.param(meshes.icosahedron(), id="icosahedron"),
        pytest.param(cube_mesh(0.3, 1), id="cube-0.3-1"),
        pytest.param(cube_mesh(1.0, 3), id="cube-1-3"),
        pytest.param(cube_mesh(1.0, 4), id="cube-1-4"),
        *(pytest.param(meshes.icosphere(s), id=f"icosphere-{s}") for s in (1, 2, 3)),
        *(pytest.param(meshes.ellipsoid_mesh(1.3, 1.0, 0.8, s), id=f"ellipsoid-{s}")
          for s in (2, 3)),
    ])
    def test_matches_the_nonsymmetric_collocation_solve(self, mesh):
        # the Cholesky solve of S gives the q of the LU solve of A = S diag(area)
        assert cap.capacitance_bem(mesh).q == pytest.approx(reference_bem_q(mesh), rel=1e-12,
                                                            abs=0.0)

    @pytest.mark.parametrize("mesh", [
        pytest.param(meshes.ellipsoid_mesh(10.0, 1.0, 1.0, 2), id="ellipsoid-10-1-1"),
        pytest.param(meshes.TriangleMesh(cube_mesh(1.0, 0).vertices * [10.0, 1.0, 1.0],
                                         cube_mesh(1.0, 0).triangles), id="box-10-1-1"),
    ])
    def test_an_indefinite_kernel_is_solved_by_lu(self, monkeypatch, mesh):
        # panels ten times longer than wide make S indefinite (lowest eigenvalues -0.20 and
        # -0.09), so Cholesky fails on meshes that validate_mesh admits; the LU of the whole
        # S solves them
        factored = []
        lu_factor = cap.lu_factor
        monkeypatch.setattr(cap, "lu_factor",
                            lambda a, **kw: factored.append(a) or lu_factor(a, **kw))
        q = cap.capacitance_bem(mesh).q
        assert len(factored) == 1 and factored[0].flags.f_contiguous
        assert q == pytest.approx(reference_bem_q(mesh), rel=1e-12, abs=0.0)

    def test_full_assembly_mirrors_the_lower_triangle(self):
        mesh = meshes.ellipsoid_mesh(1.3, 1.0, 0.8, 2)
        full = cap._assemble(mesh, full=True)
        np.testing.assert_array_equal(full, full.T)
        np.testing.assert_array_equal(np.tril(full), np.tril(cap._assemble(mesh)))

    @pytest.mark.parametrize("diagonal", [
        pytest.param(1e-14, id="positive-definite"),  # Cholesky, rcond from dpocon
        pytest.param(-1e-14, id="indefinite"),  # dpotrf fails: LU, rcond from dgecon
    ])
    def test_refuses_a_near_singular_system(self, monkeypatch, diagonal):
        mesh = meshes.icosahedron()
        S = np.eye(mesh.n_triangles, order="F")
        S[0, 0] = diagonal
        monkeypatch.setattr(cap, "_assemble", lambda m, full=False: S.copy(order="F"))
        with pytest.raises(NumericalError,
                           match=r"^BEM system ill-conditioned \(rcond=1\.00e-14\)$"):
            cap.capacitance_bem(mesh)

    def test_a_well_conditioned_indefinite_system_is_not_refused(self, monkeypatch):
        # eigenvalues -1 and 3 in the leading block: dpotrf fails, the LU solves it
        mesh = meshes.icosahedron()

        def assemble(m, full=False):
            S = np.eye(m.n_triangles, order="F")
            S[1, 0] = 2.0
            S[0, 1] = 2.0 if full else 0.0
            return S

        monkeypatch.setattr(cap, "_assemble", assemble)
        x = np.linalg.solve(assemble(mesh, full=True), np.ones(mesh.n_triangles))
        assert cap.capacitance_bem(mesh).q == pytest.approx(x.sum() / (4.0 * math.pi), rel=1e-15)

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

    def test_refine_check_past_the_cap_is_refused_before_any_solve(self, monkeypatch):
        # a 5,120-panel mesh once solved for 2.4 s and only then refused its
        # 20,480-panel subdivision, a count the user never gave
        calls = []
        monkeypatch.setattr(cap, "_assemble", lambda mesh: calls.append(mesh))
        with pytest.raises(ConfigError, match=r"^refine_check: subdividing 5120 panels gives "
                                              r"20480, past the dense-solve cap 10000$"):
            cap.capacitance_bem(meshes.icosphere(4), refine_check=True)
        assert calls == []


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
