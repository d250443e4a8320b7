import math

import numpy as np
import pytest
import scipy.sparse as sp

from bandscan.errors import DomainError, ResolutionError
from bandscan.lattice import stabiliser
from bandscan.oracle import fd

PI3 = (2.0 * math.pi) ** 3
K = np.array([0.2, 0.1, 0.15])
K2 = float(K @ K)
TRIVIAL = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)  # the group of the identity alone
H32 = 2.0 * math.pi / 32  # the grid spacing at n = 32


def reference_csr(n, k, mask):
    """The complex node-basis operator at one k, built from scratch: the reference
    that `_Sector` compresses into its real sector matrix."""
    k = np.asarray(k, dtype=float)
    h = 2.0 * math.pi / n
    node = np.arange(n**3).reshape(n, n, n)
    free = np.flatnonzero(~mask.ravel())
    pos = np.full(n**3, -1)
    pos[free] = np.arange(free.size)
    cols = [free]
    vals = [6.0 / h**2 + float(k @ k)]
    for axis in range(3):
        for step, sign in ((-1, 1.0), (1, -1.0)):
            cols.append(np.roll(node, step, axis=axis).ravel()[free])
            vals.append(-1.0 / h**2 + sign * 1j * k[axis] / h)
    C = pos[np.stack(cols, axis=1)]
    V = np.broadcast_to(np.array(vals, dtype=complex), C.shape)
    inside = C >= 0
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    A = sp.csr_matrix((V[inside], C[inside], indptr), shape=(free.size, free.size))
    A.sum_duplicates()
    return A


def free_nodes(n, a):
    """Flat indices of the nodes outside the sphere, in the order of the node basis."""
    return np.flatnonzero(~fd.sphere_mask(n, a).ravel())


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
        sym = fd._symbol(n, K)
        # no R but the identity fixes K: the sector is the whole grid, in grid order
        assert np.array_equal(fd.fourier_symbol(n, K), sym.ravel())
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

    @pytest.mark.parametrize("n", [16, 17, 24])
    def test_zero_eigenvalue_at_k_zero(self, n):
        # max|lambda| is 0 here, so the residual is judged against the floor
        # the spectrum's bound sets; a 1e-8 floor failed every solve
        res = fd.fd_dirichlet_eigenvalues((0, 0, 0), 0.0, n, 1)
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)


class TestMaskedProblem:
    def test_mask_matches_pattern(self):
        pat = fd.mask_pattern(32, 0.3)
        assert int(fd.sphere_mask(32, 0.3).sum()) == len(pat)
        # a = h sqrt(q) puts nodes on the sphere; |m| < a/h in floats once listed 93 nodes at
        # n = 24, a = pi/4, where the oracle masks 123
        assert len(fd.mask_pattern(24, math.pi / 4)) == 123
        for n in (16, 24, 32, 48, 96):
            for q in range(1, 60):
                a0 = 2.0 * math.pi / n * math.sqrt(q)
                for a in (np.nextafter(a0, 0.0), a0, np.nextafter(a0, 4.0)):
                    if a < 0.5 * math.pi:
                        mask = fd.sphere_mask(n, float(a))
                        pat = fd.mask_pattern(n, float(a))
                        assert len(pat) == mask.sum() and mask[tuple((pat + n // 2).T)].all()

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
        A = reference_csr(n, K, fd.sphere_mask(n, a))
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
        A = reference_csr(16, K, fd.sphere_mask(16, 0.5))
        defect = abs(A - A.getH()).max()
        assert defect <= 1e-12 * abs(A).max()
        M = fd._Sector(16, 0.5, TRIVIAL).matrix(K)
        assert abs(M - M.T).max() <= 1e-12 * abs(M).max()

    def test_largest_n16_masks_match_dense_reference(self):
        from scipy.sparse.linalg import eigsh

        # the biggest mask at n = 16 leaves the fewest free nodes a whole-grid
        # solve has (3,845); at k = 0 only a dense solve once got there.  The
        # reference is shift-invert ARPACK on a sparse LU of the node-basis
        # matrix, which shares nothing with LOBPCG, the preconditioner or the
        # sector basis.  The spectrum is >= 0 (a principal submatrix of the
        # periodic operator), so the values nearest a shift below 0 are the
        # lowest, and a shift just below a solved value finds the value of the
        # whole spectrum next to it.  The k = 0 matrix is real, so its
        # reference runs in real arithmetic.  At k = 0 the solve keeps the
        # sector even under all three mirrors: the lowest value, then values
        # of the whole spectrum.
        a = math.pi / 2 - 1e-6
        for k in (K, np.zeros(3)):
            res = fd.fd_dirichlet_eigenvalues(k, a, 16, 2)
            A = reference_csr(16, k, fd.sphere_mask(16, a))
            if not k.any():
                assert not A.data.imag.any()
                A = A.real
            lowest = np.sort(eigsh(A, 2, sigma=-1.0, return_eigenvectors=False))
            near = [eigsh(A, 1, sigma=v - 1e-6, return_eigenvectors=False)[0]
                    for v in res.eigenvalues]
            ref = np.sort(np.concatenate([lowest, near]))
            assert res.eigenvalues[0] == pytest.approx(ref[0], abs=1e-10)
            assert np.min(np.abs(ref[None, :] - res.eigenvalues[:, None]), axis=1).max() <= 1e-10
            if k.any():
                assert np.allclose(res.eigenvalues, lowest, atol=1e-10)
            assert res.residual_norm <= 1e-8


class TestGuards:
    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            fd.fd_dirichlet_eigenvalues(K, 0.1, 16, 1)  # < 2 cells across

    def test_resolution_warning_band(self):
        with pytest.warns(UserWarning, match="cells across") as caught:
            fd.fd_dirichlet_eigenvalues(K, 0.45, 16, 1)
        assert caught[0].filename == __file__  # a direct call names its caller

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, 0.3, 12, 1)
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, 0.1, 4, 1)

    def test_grid_above_the_cap_is_refused_before_any_sector_is_built(self, monkeypatch):
        # n = 128 once reached the build, where n = 96 already peaks at 631 MB
        built = []
        monkeypatch.setattr(fd, "_sector", lambda *a: built.append(a))
        with pytest.raises(DomainError, match=r"^n: must be >= 16 and <= 96$"):
            fd.fd_dirichlet_eigenvalues(K, 0.3, 128, 2)
        assert built == []

    def test_bad_count(self):
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, 0.3, 16, 0)

    @pytest.mark.parametrize("n", [16, 32])
    def test_count_past_the_sector_is_refused_before_any_block(self, n):
        # the start block was once built first, one plane wave per sector
        # value: at a = 0.5 it peaked at 808 MB for n = 16, and at n = 32 it
        # would take about 17 GB, before the refusal
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^count: 1000000 exceeds the \d+ unknowns"):
                fd.fd_dirichlet_eigenvalues((0.31, 0.17, 0.05), 0.8, n, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_radius_bound(self):
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(K, math.pi / 2, 16, 1)

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
        pat = fd.mask_pattern(32, 0.5 * H32)
        assert len(pat) == 1
        c = fd.discrete_inclusion_capacitance(pat, 1.0)
        assert c == pytest.approx(1.0 / (4.0 * math.pi * 0.2527310098), rel=1e-8)

    def test_scaling_in_h(self):
        pat = fd.mask_pattern(32, 2.2 * H32)
        c1 = fd.discrete_inclusion_capacitance(pat, 0.1)
        c2 = fd.discrete_inclusion_capacitance(pat, 0.2)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-14)

    def test_monotone_in_pattern(self):
        h = 0.13
        c_small = fd.discrete_inclusion_capacitance(fd.mask_pattern(32, 1.2 * H32), h)
        c_big = fd.discrete_inclusion_capacitance(fd.mask_pattern(32, 2.2 * H32), h)
        assert c_big > c_small

    def test_approaches_continuum_radius(self):
        # a well-resolved staircase ball has capacitance close to its radius
        c = fd.discrete_inclusion_capacitance(fd.mask_pattern(32, 6.0 * H32), 1.0)
        assert c == pytest.approx(6.0, rel=0.08)

    def test_green_matrix_matches_the_pairwise_loop(self, monkeypatch):
        pat = fd.mask_pattern(32, 2.2 * H32)
        loop = np.array([[fd.lattice_green(*np.abs(p - q)) for q in pat] for p in pat])
        seen = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda G, b: seen.append(G) or solve(G, b))
        fd.discrete_inclusion_capacitance(pat, 0.1)
        assert len(seen) == 1 and np.array_equal(seen[0], loop)

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
        sector = fd._Sector(16, 0.5, TRIVIAL)
        op = fd._GridOperator(sector, K, fd._symbol(16, K))
        rng = np.random.default_rng(1)
        V = rng.standard_normal((op.shape[0], 3))
        G = full_grid(16, 0.5, sector_vectors(sector, 0.5, V))
        h = 2.0 * math.pi / 16
        out = (6.0 / h**2 + K2) * G
        for ax, kj in enumerate(K):
            up, dn = np.roll(G, -1, axis=ax), np.roll(G, 1, axis=ax)
            out += -(up + dn) / h**2 + (1j * kj / h) * (up - dn)
        ref = out.reshape(-1, 3)[free_nodes(16, 0.5)]
        assert np.allclose(sector_vectors(sector, 0.5, op.matmat(V)), ref, rtol=0.0, atol=1e-10)
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
        with pytest.raises(DomainError):
            fd.fd_dirichlet_eigenvalues(k1, 0.3, 24, 3, v0=prev.vectors + 0j)


class TestStencilPattern:
    # the ids are those the rows had when the sphere centre was a parameter
    @pytest.mark.parametrize("n, a", [(16, 0.5), (16, 0.6), (24, 0.5), (16, 0.0), (16, 0.5)],
                             ids=["16-0.5-center0", "16-0.6-center1", "24-0.5-center2",
                                  "16-0.0-center4", "16-0.5-center5"])
    def test_new_geometry_gets_a_fresh_pattern(self, n, a):
        # the sector of each geometry compresses that geometry's stencil; in
        # the trivial group each free node is an orbit of its own
        mask = fd.sphere_mask(n, a)
        sector = fd._Sector(n, a, TRIVIAL)
        assert sector.size == np.count_nonzero(~mask)
        rng = np.random.default_rng(2)
        V, W = rng.standard_normal((2, sector.size, 4))
        UV, UW = sector_vectors(sector, a, V), sector_vectors(sector, a, W)
        ref = UW.conj().T @ (reference_csr(n, K, mask) @ UV)
        assert np.abs(W.T @ (sector.matrix(K) @ V) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_shared_pattern_is_read_only(self):
        sector = fd._sector(16, 0.5, stabiliser((0.5, 0.2, 0.0)))
        for arr in (sector.P.data, sector.P.indices, sector.P.indptr, sector.indices,
                    sector.indptr, sector.scatter.data, sector.gather.indices):
            with pytest.raises(ValueError):
                arr[0] = 1


@pytest.mark.parametrize("k, a, n", [
    ((0.5, 0.2, 0.0), 0.33, 24),
    ((0.2, 0.1, 0.15), 0.5, 24),
    ((0.0, 0.0, 0.5), 1.2, 16),
])
def test_masked_eigenvalues_interlace_the_symbol(k, a, n):
    # the masked operator is a principal submatrix of the periodic one, so by
    # Cauchy interlacing its j-th eigenvalue is at least the j-th symbol value
    res = fd.fd_dirichlet_eigenvalues(k, a, n, 6)
    sym = np.sort(fd.fourier_symbol(n, k), axis=None)[:6]
    scale = float(np.max(np.abs(res.eigenvalues)))
    assert np.all(res.eigenvalues >= sym - 1e-8 * scale)


def sector_vectors(sector, a, V):
    """U V: the free-node vectors whose sector coefficients are the columns of V."""
    n = sector.n
    node = np.stack(np.unravel_index(free_nodes(n, a), (n, n, n)))
    for i in sector.axes:  # every node takes the value of its orbit's representative
        node[i] = np.minimum(node[i], -node[i] % n)
    return (sector.scatter @ V)[np.ravel_multi_index(node, sector.shape)]


def full_grid(n, a, W):
    """The columns of W on the whole n^3 grid, 0 on the masked nodes."""
    G = np.zeros((n**3, W.shape[1]), dtype=complex)
    G[free_nodes(n, a)] = W
    return G.reshape(n, n, n, -1)


# k and the mirrored axes of its group: the trivial group, one mirror, the eight
# signed permutations fixing the z axis, and the swap y <-> z
SECTORS = [((0.3, 0.2, 0.1), ()), ((0.5, 0.2, 0.0), (2,)), ((0.0, 0.0, 0.5), (0, 1)),
           ((0.5, 0.2, 0.2), ())]


class TestSector:
    N, A = 16, 0.8

    def blocks(self, sector, p=8):
        rng = np.random.default_rng(5)
        return rng.standard_normal((sector.size, p)), rng.standard_normal((sector.size, p))

    @pytest.mark.parametrize("k, even", SECTORS)
    def test_basis_is_orthonormal_even_and_inversion_real(self, k, even):
        group = stabiliser(k)
        sector = fd._Sector(self.N, self.A, group)
        assert sector.axes == even
        V, W = self.blocks(sector)
        UV, UW = sector_vectors(sector, self.A, V), sector_vectors(sector, self.A, W)
        # U^H U = I, seen through random blocks
        assert np.allclose(UV.conj().T @ UW, V.T @ W, rtol=0.0, atol=1e-12)
        G = full_grid(self.N, self.A, UV)
        flip = (-np.arange(self.N)) % self.N
        # symmetric under each R of the group: the node of index j takes the
        # value of the node R j mod n (h (j - n/2) maps to h (R j - n/2) mod 2 pi)
        node = np.indices((self.N,) * 3).reshape(3, -1)
        flat = G.reshape(self.N**3, -1)
        for R in group:
            image = np.ravel_multi_index(np.asarray(R) @ node % self.N, (self.N,) * 3)
            assert np.array_equal(flat[image], flat)
        # and invariant under the inversion composed with conjugation
        assert np.allclose(G[flip][:, flip][:, :, flip].conj(), G, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k, even", SECTORS)
    def test_cached_matrix_is_the_compressed_operator(self, k, even):
        # a random k that the group fixes: the group average of a random vector
        group = stabiliser(k)
        v = np.random.default_rng(3).uniform(-0.6, 0.6, 3)
        k = np.mean([np.asarray(R) @ v for R in group], axis=0)
        sector = fd._Sector(self.N, self.A, group)
        V, W = self.blocks(sector)
        H = reference_csr(self.N, k, fd.sphere_mask(self.N, self.A))
        UV, UW = sector_vectors(sector, self.A, V), sector_vectors(sector, self.A, W)
        ref = UW.conj().T @ (H @ UV)
        M = sector.matrix(k)
        assert np.abs(W.T @ (M @ V) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(M - M.T).max() <= 1e-12 * abs(M).max()

    @pytest.mark.parametrize("k, even", SECTORS)
    def test_preconditioner_is_the_compressed_symbol_inverse(self, k, even):
        # U^H F^-1 diag(1 / (symbol + tau)) F U, with F the DFT of the whole grid
        sector = fd._Sector(self.N, self.A, stabiliser(k))
        op = fd._GridOperator(sector, k, fd._symbol(self.N, k))
        V, W = self.blocks(sector)
        UV, UW = sector_vectors(sector, self.A, V), sector_vectors(sector, self.A, W)
        G = np.fft.fftn(full_grid(self.N, self.A, UV), axes=(0, 1, 2))
        G /= (fd._symbol(self.N, k) + max(float(np.dot(k, k)), 0.1))[..., None]
        G = np.fft.ifftn(G, axes=(0, 1, 2)).reshape(-1, V.shape[1])
        ref = UW.conj().T @ G[free_nodes(self.N, self.A)]
        assert np.abs(W.T @ op.precmat(V) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("k, even", SECTORS[1:])
    def test_sector_values_are_in_the_full_spectrum(self, k, even):
        import scipy.sparse.linalg

        res = fd.fd_dirichlet_eigenvalues(k, self.A, self.N, 4)
        assert fd._sector(self.N, self.A, stabiliser(k)).size == res.vectors.shape[0]
        H = reference_csr(self.N, k, fd.sphere_mask(self.N, self.A))
        full = scipy.sparse.linalg.eigsh(H.tocsc(), k=16, sigma=0.0,
                                         return_eigenvectors=False).real
        assert res.eigenvalues[-1] < full.max()
        for lam in res.eigenvalues:
            assert np.min(np.abs(full - lam)) <= 1e-10

    @pytest.mark.parametrize("k, even", SECTORS)
    def test_sector_values_interlace_the_sector_symbol(self, k, even):
        # the sector operator is a principal submatrix of the periodic sector
        # operator in the orbit basis, whose eigenvalues are the sector symbol
        res = fd.fd_dirichlet_eigenvalues(k, self.A, self.N, 6)
        sym = np.sort(fd.fourier_symbol(self.N, k), axis=None)
        assert sym.size == fd._sector(self.N, 0.0, stabiliser(k)).size
        assert np.all(res.eigenvalues >= sym[:6] - 1e-8 * res.eigenvalues.max())

    @pytest.mark.parametrize("k, even", SECTORS[1:])
    def test_pair_values_equal_the_full_solve(self, k, even):
        sector = fd.fd_dirichlet_eigenvalues(k, self.A, self.N, 2)
        full = fd._solve(np.asarray(k), self.A, self.N, 2, None, TRIVIAL)
        assert full.vectors.shape[0] > sector.vectors.shape[0]
        assert np.allclose(sector.eigenvalues, full.eigenvalues, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_mask_is_mirror_symmetric_at_tie_radii(self, n):
        # a = h sqrt(q) puts nodes exactly on the sphere; coordinates -pi + h j
        # rounded them unevenly, and 29 such masks at n = 16, 24, 32 broke a
        # mirror.  The sector's group also swaps axes, which the mask must follow
        h = 2.0 * math.pi / n
        flip = (-np.arange(n)) % n
        for q in range(1, int((math.pi / 2 / h) ** 2) + 1):
            mask = fd.sphere_mask(n, h * math.sqrt(q))
            for axis in range(3):
                assert np.array_equal(np.take(mask, flip, axis=axis), mask)
            for perm in [(1, 0, 2), (0, 2, 1), (2, 0, 1)]:
                assert np.array_equal(np.transpose(mask, perm), mask)


def test_stalled_column_costs_one_short_call(monkeypatch):
    # in the whole spectrum the sixth value sits in a cluster (symbol 1.2843,
    # 1.2843, 1.2900, 1.2900 around the block edge); one 400-iteration lobpcg
    # call idled on the stalled extra column and the complex solve applied the
    # stencil 198 times.  The z-mirror sector splits the cluster, so the
    # whole grid is solved here
    calls = []
    matmat = fd._GridOperator.matmat
    monkeypatch.setattr(fd._GridOperator, "matmat", lambda op, V: calls.append(1) or matmat(op, V))
    res = fd._solve(np.array([0.5, 0.2, 0.0]), 0.33, 24, 6, None, TRIVIAL)
    assert res.residual_norm <= 1e-8
    assert len(calls) < 198
