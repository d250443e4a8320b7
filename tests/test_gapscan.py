from types import SimpleNamespace

import numpy as np
import pytest
from conftest import at_volume_fraction

from bandscan import dirichlet, twomode
from bandscan.errors import DomainError, TrackingError
from bandscan.lattice import integer_cube, stabiliser
from bandscan.oracle.gapscan import measure_gap_numeric
from bandscan.transmission import MaterialSpec, TransmissionParams

WEAK = MaterialSpec(1.0, 1.2, 1.2, 1.0)
TRIVIAL = (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)  # the group of the identity alone


def test_zero_contrast_has_no_gap():
    params = at_volume_fraction(MaterialSpec(1, 1, 1, 1), 0.01)
    model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), params)
    got = measure_gap_numeric(model, params, g_max=3, n_deltas=5)
    assert got is None


def test_transmission_gap_matches_prediction():
    params = at_volume_fraction(WEAK, 0.01)
    model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), params)
    got = measure_gap_numeric(model, params, g_max=3, n_deltas=7)
    _, pred = model.gap()
    assert got is not None
    width = got.hi_over_c - got.lo_over_c
    assert width == pytest.approx(pred.width_over_c, rel=0.25)


def test_dirichlet_gap_brackets_from_above():
    p = dirichlet.DirichletParams(a=0.4)
    model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), p)
    got = measure_gap_numeric(model, p, n=24, n_deltas=7)
    _, pred = model.gap()
    assert got is not None
    width = got.hi_over_c - got.lo_over_c
    assert 0.5 * pred.width_over_c <= width <= 2.0 * pred.width_over_c
    assert got.lo_over_c >= 0.5 - 1e-3  # interval sits on/above c|k0|
    assert got.hi_over_c > 0.5


def test_nu_above_one_leaves_no_robust_gap():
    p = dirichlet.DirichletParams(a=0.3)
    at = p.a_tilde
    knorm = float(np.linalg.norm([0.5, 0.6, 0.3]))
    model = twomode.pair_model((0.5, 0.6, 0.3), (1, 0, 0), p)
    got = measure_gap_numeric(
        model, p, n=24, deltas=np.linspace(-at, at, 7), window_factor=2.5
    )
    ref_split = at / knorm
    assert got is None or (got.hi_over_c - got.lo_over_c) <= ref_split / 8.0


def test_tracking_error_reports_diagnostics():
    p = dirichlet.DirichletParams(a=0.4)
    model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), p)
    with pytest.raises(TrackingError, match="bands"):
        measure_gap_numeric(model, p, n=16, deltas=np.array([0.0]), window_factor=1e-6)


def test_requires_order_two_and_params():
    # the oracle measures a pair model, and only an order-two k0 has one
    p = dirichlet.DirichletParams(a=0.2)
    with pytest.raises(DomainError):
        twomode.pair_model((0.3, 0.1, 0.2), (1, 0, 0), p)
    params = at_volume_fraction(WEAK, 0.01)
    with pytest.raises(DomainError):
        twomode.pair_model((0.3, 0.1, 0.2), (1, 0, 0), params)


def test_fd_oracle_refuses_q_other_than_the_sphere_before_any_solve(monkeypatch):
    # the FD oracle masks the sphere of q = 1; measured against it, the q = 2
    # prediction once printed the sphere's gap beside its own
    from bandscan.oracle import gapscan

    calls = []
    monkeypatch.setattr(gapscan, "fd_dirichlet_eigenvalues", lambda *a, **kw: calls.append(a))
    p = dirichlet.DirichletParams(a=0.4, q=2.0)
    model = twomode.pair_model((0, 0, 0.5), (0, 0, 1), p)
    with pytest.raises(DomainError, match=r"^q: the finite-difference oracle masks a sphere"):
        measure_gap_numeric(model, p, n=24)
    assert calls == []


def test_warm_started_ray_matches_cold_solves(monkeypatch):
    # nu = 0.16, n = 24: each point after the first starts from the Ritz
    # block of the previous one, and the bands equal those of cold solves of
    # the same (automatic) count
    from bandscan.oracle import fd, gapscan

    starts, counts = [], []
    solve = gapscan.fd_dirichlet_eigenvalues

    def recording(k, a, n, count, **kwargs):
        starts.append(kwargs.get("v0") is not None)
        counts.append(count)
        return solve(k, a, n, count, **kwargs)

    monkeypatch.setattr(gapscan, "fd_dirichlet_eigenvalues", recording)
    k0, a = np.array([0.5, 0.2, 0.0]), 0.3
    p = dirichlet.DirichletParams(a=a)
    got = measure_gap_numeric(twomode.pair_model(k0, (1, 0, 0), p), p, n=24, n_deltas=5)
    assert starts == [False, True, True, True, True]
    assert counts == [2] * 5
    for i, d in enumerate(got.deltas):
        cold = fd.fd_dirichlet_eigenvalues((1.0 + d) * k0, a, 24, counts[i])
        omegas = np.sqrt(cold.eigenvalues)
        assert got.lower_band[i] == pytest.approx(omegas[0], rel=1e-10, abs=0.0)
        assert got.upper_band[i] == pytest.approx(omegas[1], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n, even", [(16, (0, 1)), (17, ())])
def test_ray_solves_the_mirror_sector_of_the_pair(monkeypatch, n, even):
    # k0 and m0 on the z axis: the eight signed permutations that fix the
    # axis, the mirrors on x and y among them, fix both plane waves of the
    # pair; an odd grid keeps the identity alone and solves the whole spectrum
    from bandscan.oracle import fd

    seen = []
    sector = fd._sector
    monkeypatch.setattr(fd, "_sector", lambda *args: seen.append(args[2]) or sector(*args))
    p = dirichlet.DirichletParams(a=0.5)
    got = measure_gap_numeric(twomode.pair_model((0.0, 0.0, 0.5), (0, 0, 1), p), p,
                              n=n, n_deltas=3)
    group = stabiliser((0.0, 0.0, 0.5)) if n % 2 == 0 else TRIVIAL
    assert got is not None and set(seen) == {group}
    assert fd._mirrored(group) == even and len(group) == (8 if even else 1)


def test_window_follows_predicted_pair_centre():
    # a mean shift of several splittings: a window centred on c|k0| lost the
    # lower band here ("found 1"); centred on the predicted pair centre
    # |k0| (1 + (alpha + beta) f / 2) it holds both
    mats = MaterialSpec(
        0.6113107428044207, 1.036763700143883, 0.6396129353284337, 1.4858520721376596
    )
    params = TransmissionParams(materials=mats, a=0.6271676470847247)
    model = twomode.pair_model((0.0, -0.2, 0.5), (0, 0, 1), params)
    got = measure_gap_numeric(model, params, g_max=3)
    _, pred = model.gap()
    assert got is not None
    centre = 0.5 * (got.lo_over_c + got.hi_over_c)
    assert abs(centre - 0.5 * (pred.lo_over_c + pred.hi_over_c)) < pred.width_over_c


def test_dirichlet_guard_eigenvalue_changes_no_band(monkeypatch):
    # by Cauchy interlacing no FD eigenvalue past the symbol count `below`
    # lies under the window top, so asking for one more changes nothing
    from bandscan.oracle import gapscan

    k0, p = (0.5, 0.2, 0.0), dirichlet.DirichletParams(a=0.33)
    model = twomode.pair_model(k0, (1, 0, 0), p)
    got = measure_gap_numeric(model, p, n=24, n_deltas=5)
    count = gapscan._auto_count
    monkeypatch.setattr(gapscan, "_auto_count", lambda *args: count(*args) + 1)
    guarded = measure_gap_numeric(model, p, n=24, n_deltas=5)
    for band in ("lower_band", "upper_band"):
        assert np.allclose(getattr(got, band), getattr(guarded, band), rtol=1e-12, atol=0.0)


def test_transmission_ray_matches_full_pencil():
    # nu = 0.16 and k0_y = 0: every ray point is solved in the even sector of
    # the mirror y -> -y; the bands equal those of the whole pencil at each point
    import scipy.linalg

    from bandscan.oracle import gapscan, pwe

    k0 = np.array([0.2, 0.0, 0.5])
    params = at_volume_fraction(WEAK, 0.01)
    model = twomode.pair_model(k0, (0, 0, 1), params)
    got = measure_gap_numeric(model, params, g_max=3, n_deltas=7)
    assert got is not None
    window = max(5.0 * model.s / model.knorm, 1e-3)
    for i, d in enumerate(got.deltas):
        A, B = pwe._pencil((1.0 + d) * k0, params, 3, TRIVIAL)
        vals = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=(0, 11))
        omegas = np.sqrt(np.maximum(vals, 0.0)) / params.materials.c_plus
        lo, hi = gapscan._pick_two_bands(omegas, model.centre, window)
        assert got.lower_band[i] == pytest.approx(lo, rel=1e-12, abs=0.0)
        assert got.upper_band[i] == pytest.approx(hi, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k0, even", [((0.2, 0.0, 0.5), (1,)), ((0.0, 0.0, 0.5), (0, 1))])
def test_transmission_ray_solves_one_even_sector(monkeypatch, k0, even):
    # k0_i = m0_i = 0 on y, or on x and y: the ray solves the sector of the
    # group of k0, the mirrors of those axes and on the z axis the swap of x
    # and y too, and measures the edges of the whole spectrum
    import scipy.linalg

    from bandscan.oracle import fd, gapscan, pwe

    params = at_volume_fraction(WEAK, 0.01)
    model = twomode.pair_model(k0, (0, 0, 1), params)
    oracle = gapscan._oracle

    def whole(params, n, g_max):
        def solve(kv, count, v0):
            A, B = pwe._pencil(kv, params, g_max, TRIVIAL)
            return SimpleNamespace(eigenvalues=scipy.linalg.eigh(
                A, B, eigvals_only=True, subset_by_index=(0, count - 1)), vectors=None)
        basis = integer_cube(g_max)
        return lambda kv: np.sum((kv + basis) ** 2, axis=1), solve, *oracle(params, n, g_max)[2:]

    monkeypatch.setattr(gapscan, "_oracle", whole)
    ref = measure_gap_numeric(model, params, g_max=3, n_deltas=5)
    monkeypatch.setattr(gapscan, "_oracle", oracle)
    seen = []
    matrices = pwe._coefficient_matrices
    monkeypatch.setattr(pwe, "_coefficient_matrices",
                        lambda *args: seen.append(args[2]) or matrices(*args))
    got = measure_gap_numeric(model, params, g_max=3, n_deltas=5)
    assert set(seen) == {stabiliser(k0)} and fd._mirrored(stabiliser(k0)) == even
    assert got.lo_over_c == pytest.approx(ref.lo_over_c, rel=1e-12, abs=0.0)
    assert got.hi_over_c == pytest.approx(ref.hi_over_c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [(0.3, 0.2, 0.1), (0.3, 0.0, 0.1), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0),
                               (0.5, 0.2, 0.2)])
def test_unperturbed_spectrum_is_the_solved_sectors(k):
    # the count comes from the spectrum without the inclusion of the sector
    # the oracle solves.  In a uniform medium the PWE sector's values are
    # exactly its |k+g|^2, and no count past them is solved; without a mask
    # the FD sector has one basis vector per symbol value, on an even grid
    # (mirror sectors) and an odd one (the whole spectrum)
    from bandscan.oracle import gapscan

    k = np.array(k)
    unperturbed, solve = gapscan._oracle(TransmissionParams(MaterialSpec(1, 1, 1, 1), 0.5), 32, 2)[:2]
    free = np.sort(unperturbed(k))
    np.testing.assert_allclose(solve(k, len(free), None).eigenvalues, free, rtol=1e-12, atol=1e-12)
    with pytest.raises(DomainError, match="count"):
        solve(k, len(free) + 1, None)
    for n in (16, 17):
        unperturbed, solve = gapscan._oracle(dirichlet.DirichletParams(a=0.0), n, 2)[:2]
        assert solve(k, 2, None).vectors.shape[0] == unperturbed(k).size


# Edges measured when each oracle solved the sector of the mirrors x_i -> -x_i
# with k0_i = 0 (the whole spectrum at (0.5, 0.2, 0.2)), on rays of this file
MIRROR_SECTOR_EDGES = [
    ("transmission", (0, 0, 0.5), (0, 0, 1), 3, 0.4990645113975126, 0.5008884435554526),
    ("transmission", (0.5, 0.2, 0.2), (1, 0, 0), 3, 0.5736250801686803, 0.5752287187779629),
    ("transmission", (0, -0.5, 0), (0, -1, 0), 3, 0.49906451139751384, 0.5008884435554531),
    ("dirichlet", (0, 0, 0.5), (0, 0, 1), 24, 0.5037102541832756, 0.5416103165437625),
    ("dirichlet", (0.5, 0.2, 0.2), (1, 0, 0), 16, 0.5841755034052695, 0.6141988147436794),
]


@pytest.mark.parametrize("problem, k0, m0, size, lo, hi", MIRROR_SECTOR_EDGES)
def test_group_sector_keeps_the_mirror_sectors_edges(problem, k0, m0, size, lo, hi):
    # both plane waves of the pair are fixed by every R with R k0 = k0, so
    # the smaller sector of that whole group holds the same two bands; `size`
    # is g_max or n
    if problem == "transmission":
        p = at_volume_fraction(WEAK, 0.01)
        got = measure_gap_numeric(twomode.pair_model(k0, m0, p), p, g_max=size, n_deltas=7)
    else:
        p = dirichlet.DirichletParams(a=0.4)
        got = measure_gap_numeric(twomode.pair_model(k0, m0, p), p, n=size, n_deltas=7)
    assert got.lo_over_c == pytest.approx(lo, rel=1e-12, abs=0.0)
    assert got.hi_over_c == pytest.approx(hi, rel=1e-12, abs=0.0)
