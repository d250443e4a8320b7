import math

import numpy as np
import pytest

from bandscan.errors import DomainError, ResolutionError
from bandscan.oracle import fd

PI3 = (2.0 * math.pi) ** 3
K = np.array([0.2, 0.1, 0.15])
K2 = float(K @ K)


class TestUnperturbed:
    def test_lowest_mode_exact(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.0, 32, 1)
        assert res.eigenvalues[0] == pytest.approx(K2, abs=1e-10)

    def test_spectrum_matches_discrete_symbol(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.0, 16, 6)
        sym = np.sort(fd.fourier_symbol(16, K).ravel())[:6]
        assert np.allclose(res.eigenvalues, sym, atol=1e-8)

    def test_symbol_matches_cone_family(self):
        # discrete symbol approximates |k - m|^2 to O(h^2) for small m
        n = 32
        sym = fd.fourier_symbol(n, K)
        g = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        for m in [(0, 0, 0), (1, 0, 0), (0, -1, 0), (1, 1, 0)]:
            idx = tuple(int(np.where(g == c)[0][0]) for c in m)
            cone = float(np.sum((K - np.asarray(m)) ** 2))
            assert sym[idx] == pytest.approx(cone, abs=0.02)
        assert sym[0, 0, 0] == K2  # g = 0 is exact

    def test_low_eigenvalues_near_cones(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.0, 32, 4)
        cones = np.sort(
            [float(np.sum((K - np.asarray(m)) ** 2))
             for m in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0),
                       (0, -1, 0), (0, 0, -1), (1, 1, 0)]]
        )[:4]
        assert np.allclose(res.eigenvalues, cones, atol=0.02)
        assert abs(res.eigenvalues[0] - K2) <= 1e-3


class TestMaskedProblem:
    def test_mask_matches_pattern(self):
        grid = fd.FDGrid(n=32, a=0.3)
        pat = fd.mask_pattern(0.3 / grid.h)
        assert int(grid.inclusion_mask.sum()) == len(pat)

    def test_shift_tracks_asymptotic(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.3, 32, 1)
        shift = math.sqrt(res.eigenvalues[0]) - math.sqrt(K2)
        eps = 2.0 * math.pi * 0.3 / (K2 * PI3)
        assert shift == pytest.approx(eps * math.sqrt(K2), rel=0.25)

    def test_grid_convergence_pairs(self):
        # |lam(n) - lam(2n)| decreases for the pairs (16,32), (24,48)
        a = 0.5
        lams = {
            n: fd.fd_dirichlet_eigenvalues(K, a, n, 1).eigenvalues[0]
            for n in (16, 24, 32, 48)
        }
        assert abs(lams[16] - lams[32]) > abs(lams[24] - lams[48])

    def test_grid_convergence_unmasked_mode(self):
        # pure discretization error of the first nonzero cone is O(h^2)
        cone = min(
            float(np.sum((K - np.asarray(m)) ** 2))
            for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        errs = []
        for n in (16, 24, 32):
            res = fd.fd_dirichlet_eigenvalues(K, 0.0, n, 2)
            errs.append(abs(res.eigenvalues[1] - cone))
        assert errs[0] > errs[1] > errs[2]

    def test_exceptional_splitting_factor(self):
        # measured upper-branch shift decides the factor-2 ambiguity
        res = fd.fd_dirichlet_eigenvalues((0.0, 0.0, 0.5), 0.3, 32, 2)
        omega = np.sqrt(res.eigenvalues)
        eps_meas = omega[1] / 0.5 - 1.0
        a_tilde = 4.0 * math.pi * 0.3 / PI3
        cand_full = a_tilde / 0.25
        cand_half = cand_full / 2.0
        assert abs(eps_meas - cand_full) < 0.1 * abs(eps_meas - cand_half)
        assert eps_meas == pytest.approx(cand_full, rel=0.25)

    def test_matrix_free_matches_assembled(self):
        import scipy.sparse.linalg

        n, a = 16, 0.5
        grid = fd.FDGrid(n=n, a=a)
        A = fd.assemble_sparse(n, K, grid.inclusion_mask)
        # the operator is positive, so the values nearest 0 are the lowest
        ref = np.sort(scipy.sparse.linalg.eigsh(
            A.tocsc(), k=3, sigma=0.0, return_eigenvectors=False
        ).real)
        res = fd.fd_dirichlet_eigenvalues(K, a, n, 3)
        assert np.allclose(res.eigenvalues, ref, atol=1e-7)

    def test_determinism(self):
        r1 = fd.fd_dirichlet_eigenvalues(K, 0.3, 24, 2)
        r2 = fd.fd_dirichlet_eigenvalues(K, 0.3, 24, 2)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)

    def test_hermiticity_of_assembly(self):
        A = fd.assemble_sparse(16, K, fd.FDGrid(n=16, a=0.5).inclusion_mask)
        defect = abs(A - A.getH()).max()
        assert defect <= 1e-12 * abs(A).max()

    def test_offcenter_sphere(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.4, 24, 1, center=(0.1, -0.05, 0.2))
        assert res.eigenvalues[0] > K2

    def test_largest_n16_masks_match_dense_reference(self):
        import scipy.linalg

        # the biggest mask at n = 16 leaves the fewest free nodes any solve
        # has (3,845); at k = 0 only a dense solve once got there.  The k = 0
        # matrix is real, so its reference eigvalsh runs in real arithmetic.
        a = math.pi / 2 - 1e-6
        grid = fd.FDGrid(n=16, a=a)
        for k in (K, np.zeros(3)):
            res = fd.fd_dirichlet_eigenvalues(k, a, 16, 2)
            dense = fd.assemble_sparse(16, k, grid.inclusion_mask).toarray()
            if not k.any():
                assert not dense.imag.any()
                dense = dense.real
            ref = np.sort(scipy.linalg.eigvalsh(dense))[:2]
            assert np.allclose(res.eigenvalues, ref, atol=1e-10)
            assert res.residual_norm <= 1e-8


class TestGuards:
    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            fd.fd_dirichlet_eigenvalues(K, 0.1, 16, 1)  # < 2 cells across

    def test_resolution_warning_band(self):
        with pytest.warns(UserWarning, match="cells across"):
            fd.fd_dirichlet_eigenvalues(K, 0.45, 16, 1)

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, 0.3, 12, 1)
        with pytest.raises(DomainError):
            fd.FDGrid(n=4, a=0.1)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, 0.3, 16, 0)

    def test_radius_bound(self):
        with pytest.raises(DomainError):
            fd.FDGrid(n=16, a=math.pi / 2)

    def test_result_sorted_and_residual(self):
        res = fd.fd_dirichlet_eigenvalues(K, 0.3, 24, 3)
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert res.residual_norm <= 1e-8


class TestLatticeGreen:
    def test_watson_constant(self):
        assert fd.lattice_green(0, 0, 0) == pytest.approx(0.2527310098, abs=1e-9)

    def test_far_field(self):
        assert fd.lattice_green(5, 0, 0) * 4.0 * math.pi * 5.0 == pytest.approx(1.0, rel=0.02)
        assert fd.lattice_green(0, 0, 9) * 4.0 * math.pi * 9.0 == pytest.approx(1.0, rel=0.005)

    def test_symmetry(self):
        assert fd.lattice_green(1, 2, 0) == fd.lattice_green(0, 2, 1)
        assert fd.lattice_green(-1, 2, 0) == fd.lattice_green(1, 2, 0)


class TestDiscreteCapacitance:
    def test_single_node(self):
        pat = fd.mask_pattern(0.5)
        assert len(pat) == 1
        c = fd.discrete_inclusion_capacitance(pat, 1.0)
        assert c == pytest.approx(1.0 / (4.0 * math.pi * 0.2527310098), rel=1e-8)

    def test_scaling_in_h(self):
        pat = fd.mask_pattern(2.2)
        c1 = fd.discrete_inclusion_capacitance(pat, 0.1)
        c2 = fd.discrete_inclusion_capacitance(pat, 0.2)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-14)

    def test_monotone_in_pattern(self):
        h = 0.13
        c_small = fd.discrete_inclusion_capacitance(fd.mask_pattern(1.2), h)
        c_big = fd.discrete_inclusion_capacitance(fd.mask_pattern(2.2), h)
        assert c_big > c_small

    def test_approaches_continuum_radius(self):
        # a well-resolved staircase ball has capacitance close to its radius
        c = fd.discrete_inclusion_capacitance(fd.mask_pattern(6.0), 1.0)
        assert c == pytest.approx(6.0, rel=0.08)

    def test_empty_pattern_rejected(self):
        with pytest.raises(DomainError):
            fd.discrete_inclusion_capacitance(np.zeros((0, 3), dtype=int), 0.1)


class TestIterativeSolver:
    def test_y_axis_image_converges(self):
        # the 27-node mask at n = 32 once stalled on a ghost Ritz value along
        # y; by cube symmetry its eigenvalues equal those of the z-axis image
        ry = fd.fd_dirichlet_eigenvalues((0.0, 0.5, 0.0), 0.36, 32, 3)
        rz = fd.fd_dirichlet_eigenvalues((0.0, 0.0, 0.5), 0.36, 32, 3)
        assert ry.residual_norm <= 1e-8
        assert np.allclose(ry.eigenvalues, rz.eigenvalues, rtol=1e-8, atol=0.0)

    def test_small_k_converges(self):
        # with a preconditioner shift of |k|^2 alone the g = 0 mode swamped
        # every preconditioned residual here and the solve stalled
        rx = fd.fd_dirichlet_eigenvalues((1e-3, 0.0, 0.0), 0.55, 24, 2)
        ry = fd.fd_dirichlet_eigenvalues((0.0, 1e-3, 0.0), 0.55, 24, 2)
        assert rx.residual_norm <= 1e-8
        assert np.allclose(rx.eigenvalues, ry.eigenvalues, rtol=1e-8, atol=0.0)

    def test_csr_operator_matches_stencil(self):
        grid = fd.FDGrid(n=16, a=0.5)
        op = fd._GridOperator(grid, K)
        rng = np.random.default_rng(1)
        V = rng.standard_normal((op.nfree, 3)) + 1j * rng.standard_normal((op.nfree, 3))
        G = np.zeros((16**3, 3), dtype=complex)
        G[op.idx] = V
        G = G.reshape(16, 16, 16, 3)
        h = grid.h
        out = (6.0 / h**2 + K2) * G
        for ax, kj in enumerate(K):
            up, dn = np.roll(G, -1, axis=ax), np.roll(G, 1, axis=ax)
            out += -(up + dn) / h**2 + (1j * kj / h) * (up - dn)
        ref = out.reshape(-1, 3)[op.idx]
        assert np.allclose(op.matmat(V), ref, rtol=0.0, atol=1e-10)
        lo, hi = op.spectrum
        assert lo >= 0.0 and hi == pytest.approx(float(fd.fourier_symbol(16, K).max()))

    def test_warm_start_matches_cold(self):
        k1 = np.array([0.5, 0.2, 0.0])
        cold = fd.fd_dirichlet_eigenvalues(1.01 * k1, 0.3, 24, 3)
        prev = fd.fd_dirichlet_eigenvalues(k1, 0.3, 24, 3)
        warm = fd.fd_dirichlet_eigenvalues(1.01 * k1, 0.3, 24, 3, v0=prev.vectors)
        assert warm.vectors.shape[1] >= 3
        assert np.allclose(warm.eigenvalues, cold.eigenvalues, rtol=1e-10, atol=0.0)
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(k1, 0.3, 24, 3, v0=prev.vectors[:-1])
