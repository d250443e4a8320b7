import math

import numpy as np
import pytest
import scipy.linalg
from conftest import at_volume_fraction, epsilon_nonexceptional_transmission

from bandscan import twomode
from bandscan.errors import DomainError, NumericalError
from bandscan.lattice import integer_cube, stabiliser
from bandscan.oracle import pwe
from bandscan.oracle.gapscan import measure_gap_numeric
from bandscan.transmission import MaterialSpec, TransmissionParams

PI3 = (2.0 * math.pi) ** 3

WEAK = MaterialSpec(gamma_plus=1.0, gamma_minus=1.2, rho_plus=1.2, rho_minus=1.0)
UNIFORM = MaterialSpec(1.0, 1.0, 1.0, 1.0)
STRONG = MaterialSpec(gamma_plus=1.0, gamma_minus=3.0, rho_plus=1.0, rho_minus=0.4)


def weak_params(f=0.01):
    return at_volume_fraction(WEAK, f)


TRIVIAL = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)  # the group of the identity alone


def orbit_representatives(group, g_max):
    """One mode per orbit {R g : R in group} of the cube, found by brute force."""
    seen, reps = set(), []
    for g in integer_cube(g_max).tolist():
        if tuple(g) not in seen:
            seen |= {tuple(np.asarray(R) @ g) for R in group}
            reps.append(g)
    return np.array(reps)


class TestBasis:
    def test_size_and_order(self):
        basis = integer_cube(2)
        assert len(basis) == 125
        assert tuple(basis[0]) == (-2, -2, -2)
        # closed under negation
        as_set = {tuple(g) for g in basis}
        assert all((-g[0], -g[1], -g[2]) in as_set for g in basis)

    def test_cap(self):
        with pytest.raises(DomainError, match="g_max"):
            pwe.pwe_transmission_eigenvalues((0, 0, 0.5), weak_params(0.01), pwe.MAX_G_MAX + 1, 2)


class TestSphereIndicator:
    def test_zero_mode_is_volume_fraction(self):
        a = 0.5
        f = (4.0 / 3.0) * math.pi * a**3 / PI3
        assert pwe.sphere_indicator_fourier(0.0, a) == pytest.approx(f, rel=1e-15)
        assert pwe.sphere_indicator_fourier(0.0, 0.5) == pytest.approx(
            0.0021121, rel=1e-3
        )

    def test_continuity_at_small_argument(self):
        a = 1e-5
        f = (4.0 / 3.0) * math.pi * a**3 / PI3
        val = pwe.sphere_indicator_fourier(1.0, a)
        assert val == pytest.approx(f, rel=1e-8)

    def test_series_matches_closed_form_at_crossover(self):
        a = 0.9e-4
        t = a  # |g| = 1
        closed = 3.0 * (math.sin(t) - t * math.cos(t)) / t**3
        f = (4.0 / 3.0) * math.pi * a**3 / PI3
        assert pwe.sphere_indicator_fourier(1.0, a) == pytest.approx(
            f * closed, rel=1e-10
        )

    def test_parseval_monotone_from_below(self):
        a = weak_params().a
        f = (4.0 / 3.0) * math.pi * a**3 / PI3
        partials = []
        for G in (2, 4, 8, 12):
            rng = np.arange(-G, G + 1)
            M = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
            vals = pwe.sphere_indicator_fourier(np.linalg.norm(M, axis=1), a)
            partials.append(float(np.sum(vals**2)))
        target = f * (1.0 - f) + f * f
        assert all(p2 > p1 for p1, p2 in zip(partials, partials[1:]))
        assert all(p < target for p in partials)
        assert partials[-1] > 0.9 * target

    def test_three_norms_are_three_values(self):
        # an array of three |g| once passed for a 3-vector g, and came back as one scalar
        norms = np.array([0.0, 1.0, 2.0])
        got = pwe.sphere_indicator_fourier(norms, 0.5)
        assert got.shape == (3,)
        assert np.array_equal(got, [pwe.sphere_indicator_fourier(x, 0.5) for x in norms])

    def test_invalid_radius(self):
        with pytest.raises(DomainError):
            pwe.sphere_indicator_fourier(0.0, 0.0)


class TestEigenvalues:
    def test_uniform_medium_exact(self):
        params = TransmissionParams(materials=UNIFORM, a=0.5)
        k = np.array([0.1, 0.25, -0.3])
        res = pwe.pwe_transmission_eigenvalues(k, params, 2, 8)
        basis = integer_cube(2)
        exact = np.sort(np.sum((k[None, :] + basis) ** 2, axis=1))[:8]
        assert np.allclose(res.eigenvalues, exact, atol=1e-11)

    def test_uniform_scaled_speed(self):
        mats = MaterialSpec(2.0, 2.0, 1.0, 1.0)  # c = 1/sqrt(2)
        params = TransmissionParams(materials=mats, a=0.5)
        k = np.array([0.0, 0.0, 0.5])
        res = pwe.pwe_transmission_eigenvalues(k, params, 2, 2)
        assert res.eigenvalues[0] == pytest.approx(0.25 / 2.0, rel=1e-12)

    def test_weak_contrast_splitting(self):
        params = weak_params(0.01)
        res = pwe.pwe_transmission_eigenvalues((0.0, 0.0, 0.5), params, 3, 2)
        omegas = np.sqrt(res.eigenvalues) / params.materials.c_plus
        split = float(omegas[1] - omegas[0])
        assert split == pytest.approx(1.9375e-3, rel=0.25)

    @pytest.mark.parametrize("f", [0.01, 0.05])
    @pytest.mark.parametrize("mats", [MaterialSpec(1.0, 1.2, 1.0, 1.0),
                                      MaterialSpec(1.0, 1.0, 1.2, 1.0)],
                             ids=["alpha", "beta"])
    def test_order_one_epsilon(self, mats, f):
        # omega = (1 + eps) c+ |k| at a non-exceptional k.  Each material set
        # isolates one of alpha (measured 0.14 % off) and beta (1.0-1.6 %);
        # in WEAK they nearly cancel, and the remainder dominates eps
        k = (0.2, 0.1, 0.15)
        params = at_volume_fraction(mats, f)
        res = pwe.pwe_transmission_eigenvalues(k, params, 3, 1)
        eps = math.sqrt(res.eigenvalues[0]) / (mats.c_plus * math.hypot(*k)) - 1.0
        assert eps == pytest.approx(epsilon_nonexceptional_transmission(params), rel=0.05)

    @pytest.mark.parametrize("mats", [WEAK, STRONG])
    def test_residual_is_small_when_the_lowest_value_is_zero(self, mats):
        # k on the reciprocal lattice: the kept value is 0, and so is the
        # largest one solved for in its sector
        params = TransmissionParams(materials=mats, a=0.5)
        got = pwe.pwe_transmission_eigenvalues((1.0, 1.0, 1.0), params, 3, 1)
        assert got.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert got.residual_norm <= 1e-12

    def test_assembly_symmetric(self):
        A, B = pwe.assemble_pwe((0.2, -0.1, 0.3), weak_params(0.02), 3)
        assert np.linalg.norm(A - A.T) <= 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(B - B.T) <= 1e-12 * np.linalg.norm(B)

    def test_determinism(self):
        params = weak_params(0.01)
        a = pwe.pwe_transmission_eigenvalues((0.0, 0.0, 0.5), params, 3, 3)
        b = pwe.pwe_transmission_eigenvalues((0.0, 0.0, 0.5), params, 3, 3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_guards(self):
        params = weak_params(0.01)
        with pytest.raises(DomainError):
            pwe.pwe_transmission_eigenvalues((0, 0, 0.5), params, 1, 2)
        with pytest.raises(DomainError):
            pwe.pwe_transmission_eigenvalues((0, 0, 0.5), params, 3, 0)
        with pytest.raises(DomainError):
            pwe.pwe_transmission_eigenvalues((0, 0, 0.5), params, 2, 126)

    def test_resolution_warning(self):
        tiny = TransmissionParams(materials=WEAK, a=0.3)
        with pytest.warns(UserWarning, match="truncation"):
            pwe.pwe_transmission_eigenvalues((0, 0, 0.5), tiny, 2, 1)


def broadcast_pencil(k, params, g_max):
    """(A, B) from the N x N x 3 array of mode differences, entry by entry."""
    basis = integer_cube(g_max).astype(float)
    kg = np.asarray(k, dtype=float)[None, :] + basis
    dG = np.linalg.norm(basis[:, None, :] - basis[None, :, :], axis=2)
    chi = pwe.sphere_indicator_fourier(dG, params.a)
    m = params.materials
    diag = dG < 0.5
    eta = np.where(diag, 1.0 / m.rho_plus, 0.0) + (1.0 / m.rho_minus - 1.0 / m.rho_plus) * chi
    gam = np.where(diag, m.gamma_plus, 0.0) + (m.gamma_minus - m.gamma_plus) * chi
    return (kg @ kg.T) * eta, gam


class TestAssembly:
    @pytest.mark.parametrize("g_max", [2, 3])
    @pytest.mark.parametrize("k", [(0.0, 0.0, 0.0), (0.2, -0.1, 0.3)])
    @pytest.mark.parametrize("mats,f", [(WEAK, 0.02), (STRONG, 0.1)])
    def test_matches_broadcast_formula(self, g_max, k, mats, f):
        # the whole pencil: at k = 0 the solve would keep the sector of all 48 R
        params = at_volume_fraction(mats, f)
        A, B = pwe._pencil(k, params, g_max, TRIVIAL)
        A_ref, B_ref = broadcast_pencil(k, params, g_max)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(B, B_ref)

    def test_ray_transforms_the_indicator_once(self, monkeypatch):
        calls = []
        original = pwe.sphere_indicator_fourier

        def counted(g, a):
            calls.append(a)
            return original(g, a)

        monkeypatch.setattr(pwe, "sphere_indicator_fourier", counted)
        pwe._coefficient_matrices.cache_clear()
        params = weak_params(0.01)
        model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), params)
        got = measure_gap_numeric(model, params, g_max=3, n_deltas=7)
        pwe._coefficient_matrices.cache_clear()
        assert got is not None and len(got.deltas) == 7
        assert calls == [params.a]

    def test_new_parameters_give_fresh_matrices(self):
        k = (0.2, -0.1, 0.3)
        base = weak_params(0.02)
        cases = [
            (base, 3),
            (TransmissionParams(materials=WEAK, a=1.1 * base.a), 3),
            (TransmissionParams(materials=STRONG, a=base.a), 3),
            (base, 2),
            (base, 3),
        ]
        for params, g_max in cases:
            A, B = pwe.assemble_pwe(k, params, g_max)
            A_ref, B_ref = broadcast_pencil(k, params, g_max)
            assert np.array_equal(A, A_ref)
            assert np.array_equal(B, B_ref)

    def test_shared_mass_matrix_is_read_only(self):
        params = weak_params(0.02)
        _, B = pwe.assemble_pwe((0.2, -0.1, 0.3), params, 2)
        with pytest.raises(ValueError):
            B[0, 0] = 0.0
        _, B_again = pwe.assemble_pwe((0.3, 0.1, 0.5), params, 2)
        assert np.array_equal(B_again, broadcast_pencil((0, 0, 0), params, 2)[1])
        # the Cholesky factor of the sector's B, which every k of a ray reuses
        for k in [(0.2, -0.1, 0.3), (0.3, 0.0, 0.5), (0.0, 0.0, 0.5), (0.5, 0.2, 0.2)]:
            _, _, B, L = pwe._coefficient_matrices(params, 2, stabiliser(k))
            with pytest.raises(ValueError):
                L[0, 0] = 0.0
            assert np.allclose(L @ L.T, B, rtol=0.0, atol=1e-14)


class TestSectorProjection:
    @pytest.mark.parametrize("axes", [(2,), (0, 2), (0, 1, 2)])
    @pytest.mark.parametrize("mats", [WEAK, STRONG])
    def test_sector_pencil_is_the_projected_full_pencil(self, axes, mats):
        # U's column for a representative r is the normalised sum of e_g over
        # the orbit of r under the group of k: the mirrors on `axes` and, for
        # k on a coordinate axis, the swaps that fix it
        params = at_volume_fraction(mats, 0.05)
        k = tuple(0.0 if i in axes else 0.1 * (i + 2) for i in range(3))
        group = stabiliser(k)
        row = {g: j for j, g in enumerate(map(tuple, integer_cube(3).tolist()))}
        modes = pwe._coefficient_matrices(params, 3, group)[0].tolist()
        U = np.zeros((len(row), len(modes)))
        for col, r in enumerate(modes):
            orbit = {tuple(np.asarray(R) @ r) for R in group}
            for g in orbit:
                U[row[g], col] = 1.0 / math.sqrt(len(orbit))
        A, B = pwe._pencil(k, params, 3, TRIVIAL)
        for got, full in zip(pwe._pencil(k, params, 3, group), (A, B)):
            np.testing.assert_allclose(got, U.T @ full @ U, rtol=0.0,
                                       atol=1e-12 * np.abs(full).max())


def full_pencil_values(k, params, g_max, count, group=None):
    """scipy's eigh of the pencil the solve keeps at k, or of the sector of `group`."""
    if group is None:
        A, B = pwe.assemble_pwe(k, params, g_max)
    else:
        A, B = pwe._pencil(k, params, g_max, group)
    return scipy.linalg.eigh(A, B, subset_by_index=(0, min(count, len(A)) - 1))[0]


class TestSectorSolve:
    @pytest.mark.parametrize("g_max", [2, 3, 4])
    @pytest.mark.parametrize("k", [(0.2, 0.0, 0.5), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("mats,f", [(WEAK, 0.02), (STRONG, 0.1)])
    def test_matches_full_pencil(self, g_max, k, mats, f):
        params = at_volume_fraction(mats, f)
        ref = full_pencil_values(k, params, g_max, 12)
        # at k = 0 the lowest value is 0, so it is held to an absolute bound
        atol = 1e-12 * ref[-1] if not any(k) else 0.0
        for count in range(1, len(ref) + 1):  # at k = 0, g_max = 2 the sector has 10 modes
            got = pwe.pwe_transmission_eigenvalues(k, params, g_max, count)
            np.testing.assert_allclose(got.eigenvalues, ref[:count], rtol=1e-12, atol=atol)
            assert got.residual_norm < 1e-10

    @pytest.mark.parametrize("g_max", [2, 3])
    @pytest.mark.parametrize("k", [(0.1, 0.2, 0.3), (0.2, -0.1, 0.3)])
    def test_no_zero_component_is_the_full_pencil(self, g_max, k):
        params = weak_params(0.02)
        got = pwe.pwe_transmission_eigenvalues(k, params, g_max, 5)
        assert np.array_equal(got.eigenvalues, full_pencil_values(k, params, g_max, 5))


class TestEvenSector:
    @pytest.mark.parametrize("g_max", [2, 3, 4])
    @pytest.mark.parametrize("k, even", [((0.0, 0.2, 0.5), (0,)), ((0.0, 0.5, 0.0), (0, 2)),
                                         ((0.2, 0.0, 0.5), (1,)), ((0.0, 0.0, 0.5), (0, 1)),
                                         ((0.0, 0.0, 0.0), (0, 1, 2)), ((0.5, 0.2, 0.2), ()),
                                         ((0.0, -0.5, 0.0), (0, 2))])
    @pytest.mark.parametrize("mats,f", [(WEAK, 0.02), (STRONG, 0.1)])
    def test_values_are_among_the_full_pencils(self, g_max, k, even, mats, f):
        # the solve keeps the sector symmetric under the group G of k.  Its
        # diagonal elements are the mirrors of k's zero components, a subgroup
        # whose sector holds G's: G's values are among the mirrors', and those
        # among the whole pencil's
        params = at_volume_fraction(mats, f)
        group = stabiliser(k)
        mirrors = tuple(R for R in group if not np.any(np.asarray(R) - np.diag(np.diag(R))))
        assert len(mirrors) == 2 ** len(even)
        count = min(12, len(pwe.free_spectrum(k, g_max)))  # 10 modes at k = 0, g_max = 2
        got = pwe.pwe_transmission_eigenvalues(k, params, g_max, count)
        np.testing.assert_array_equal(got.eigenvalues,
                                      full_pencil_values(k, params, g_max, count, group))
        # at k = 0 the lowest value is 0, so it is held to an absolute bound
        tol = 1e-12 * np.abs(got.eigenvalues)
        if not any(k):
            tol = np.maximum(tol, 1e-12 * got.eigenvalues[-1])
        for sub in (mirrors, TRIVIAL):
            values = scipy.linalg.eigh(*pwe._pencil(k, params, g_max, sub), eigvals_only=True)
            assert np.all(np.min(np.abs(values[None, :] - got.eigenvalues[:, None]), axis=1) <= tol)
        assert got.residual_norm < 1e-10

    def test_odd_bands_are_left_out(self):
        # uniform medium at k = (0, 0, 0.5): |k+g|^2 = 1.25 has eight modes,
        # g = (+-1, 0, *) and (0, +-1, *) with g_z in {0, -1}.  The eight
        # signed permutations fixing k map the four of one g_z to each other,
        # and the sector keeps one symmetric sum per g_z
        params = TransmissionParams(materials=UNIFORM, a=0.5)
        k = np.array([0.0, 0.0, 0.5])
        got = pwe.pwe_transmission_eigenvalues(k, params, 3, 12)
        reps = orbit_representatives(stabiliser(k), 3)
        exact = np.sort(np.sum((k + reps) ** 2, axis=1))[:12]
        np.testing.assert_allclose(got.eigenvalues, exact, rtol=1e-12)
        assert np.count_nonzero(np.isclose(got.eigenvalues, 1.25, rtol=1e-12)) == 2

    @pytest.mark.parametrize("g_max", [2, 4])
    @pytest.mark.parametrize("axes", [(), (1,), (0, 1), (0, 1, 2)])
    def test_sector_size_bounds_the_count(self, g_max, axes):
        # one mode per orbit of the group of k
        params = weak_params(0.02)
        k = tuple(0.0 if i in axes else 0.5 for i in range(3))
        size = len(orbit_representatives(stabiliser(k), g_max))
        assert len(pwe.assemble_pwe(k, params, g_max)[0]) == size
        assert len(pwe.free_spectrum(k, g_max)) == size
        pwe.pwe_transmission_eigenvalues(k, params, g_max, size)
        with pytest.raises(DomainError, match="count"):
            pwe.pwe_transmission_eigenvalues(k, params, g_max, size + 1)
