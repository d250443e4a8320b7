import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_order_two_pairs

from bandscan import lattice
from bandscan.errors import DomainError
from bandscan.reports import write_face_map_csv

SQ2 = math.sqrt(2.0) / 2.0


class TestEnumeration:
    def test_single_shift(self):
        assert lattice.enumerate_candidate_shifts((0, 0, 0.5)) == [(0, 0, 1)]

    def test_generic_vector_has_none(self):
        assert lattice.enumerate_candidate_shifts((0.3, 0.1, 0.2)) == []

    def test_corner_vector(self):
        got = lattice.enumerate_candidate_shifts((0.5, 0.5, 0.5))
        want = sorted(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        )
        assert got == want

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            lattice.enumerate_candidate_shifts((0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            lattice.classify_wavevector((0.0, 0.0, 0.0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DomainError):
            lattice.enumerate_candidate_shifts((0, 0, 0.5), tol=-1.0)


class TestClassification:
    def test_order_two(self):
        cls = lattice.classify_wavevector((0, 0, 0.5))
        assert cls.order == 2
        assert cls.shifts == ((0, 0, 1),)

    def test_face_diagonal_is_order_four(self):
        # (1,1,0) also satisfies 2 k.m = |m|^2 here: 2*(0.5+0.5) = 2 = |m|^2
        cls = lattice.classify_wavevector((0.5, 0.5, 0))
        assert cls.order == 4
        assert set(cls.shifts) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_non_exceptional(self):
        assert lattice.classify_wavevector((0.3, 0.1, 0.2)).order == 1

    def test_exact_rational_mode(self):
        cls = lattice.classify_wavevector_exact((0, 0, Fraction(1, 2)))
        assert cls.order == 2 and cls.shifts == ((0, 0, 1),)
        cls = lattice.classify_wavevector_exact(((1, 2), (1, 2), (1, 2)))
        assert cls.order == 8
        # knife edge: a tiny perturbation along m flips the exact predicate
        cls = lattice.classify_wavevector_exact((Fraction(1, 2) + Fraction(1, 10**9), 0, 0))
        assert (1, 0, 0) not in cls.shifts

    def test_exact_matches_float_on_rationals(self, pair_rng):
        for _ in range(50):
            num = pair_rng.integers(-8, 9, size=3)
            den = pair_rng.integers(1, 7)
            if not num.any():
                continue
            kf = num / den
            exact = lattice.classify_wavevector_exact([(int(n), int(den)) for n in num])
            approx = lattice.classify_wavevector(kf)
            assert exact.order == approx.order
            assert exact.shifts == approx.shifts

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                    min_size=3, max_size=3).filter(any))
    def test_exact_matches_float_on_random_small_rationals(self, comps):
        exact = lattice.classify_wavevector_exact(comps)
        approx = lattice.classify_wavevector([float(c) for c in comps])
        assert exact.shifts == approx.shifts

    def test_exact_mode_has_no_integer_overflow(self):
        # denominators far beyond int64 still give the exact predicate
        big = 10**30
        cls = lattice.classify_wavevector_exact((Fraction(1, 2), Fraction(7, big), 0))
        assert cls.shifts == ((1, 0, 0),)
        cls = lattice.classify_wavevector_exact((Fraction(1, 2) + Fraction(1, big), 0, 0))
        assert cls.order == 1


class TestNu:
    def test_face_center(self):
        assert lattice.gap_admissible((0, 0, 0.5), (0, 0, 1)).nu == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        # 4*(0.25+0.04) - 1 and 4*(0.25+0.36+0.09) - 1
        assert lattice.gap_admissible((0.5, 0.2, 0), (1, 0, 0)).nu == pytest.approx(0.16, rel=1e-12)
        assert lattice.gap_admissible((0.5, 0.6, 0.3), (1, 0, 0)).nu == pytest.approx(1.8, rel=1e-12)

    def test_violating_pair_rejected(self):
        with pytest.raises(DomainError):
            lattice.gap_admissible((0.3, 0.1, 0.2), (1, 0, 0))

    def test_nonnegative_over_many_pairs(self, pair_rng):
        pairs = random_order_two_pairs(pair_rng, 10_000, ratio_band=0.0)
        nus = [lattice.gap_admissible(k0, m0).nu for k0, m0, _ in pairs]
        assert min(nus) >= -1e-12


class TestGapAdmissible:
    def test_gap_predicted(self):
        adm = lattice.gap_admissible((0.5, 0.2, 0), (1, 0, 0))
        assert adm.verdict is lattice.Verdict.GAP_PREDICTED
        assert adm.ratio == pytest.approx(math.sqrt(0.29), rel=1e-12)

    def test_no_gap(self):
        adm = lattice.gap_admissible((0.5, 0.6, 0.3), (1, 0, 0))
        assert adm.verdict is lattice.Verdict.NO_GAP
        assert adm.ratio == pytest.approx(math.sqrt(0.7), rel=1e-12)

    def test_boundary_excluded(self):
        # |k0|^2 = 0.5 with the plane condition for (1,0,0) and order two
        k0 = (0.5, 0.3, 0.4)
        assert lattice.classify_wavevector(k0).order == 2
        adm = lattice.gap_admissible(k0, (1, 0, 0))
        assert adm.verdict is lattice.Verdict.BOUNDARY_EXCLUDED

    def test_higher_order_excluded(self):
        adm = lattice.gap_admissible((0.5, 0.5, 0), (1, 0, 0))
        assert adm.verdict is lattice.Verdict.HIGHER_ORDER_EXCLUDED

    def test_non_exceptional_rejected(self):
        with pytest.raises(DomainError):
            lattice.gap_admissible((0.3, 0.1, 0.2), (1, 0, 0))

    @pytest.mark.parametrize("k0, m0", [((0.5, 0.2, 0.0), (0, 1, 0)),
                                         ((0.3, 0.1, 0.2), (1, 0, 0)),
                                         ((0.5, 0.5, 0.0), (1, 0, 1))])
    def test_unlisted_shift_refused_with_k0_in_plain_floats(self, k0, m0):
        # a pair is valid only when m0 is a shift of k0's classification
        assert m0 not in lattice.classify_wavevector(k0).shifts
        with pytest.raises(DomainError) as exc:
            lattice.gap_admissible(np.array(k0), m0)
        assert f"k0={k0}" in str(exc.value)

    def test_gap_iff_nu_below_one(self, pair_rng):
        band = 1e-6
        for k0, m0, ratio in random_order_two_pairs(pair_rng, 300):
            adm = lattice.gap_admissible(k0, m0, exclusion_band=band)
            if adm.verdict is lattice.Verdict.BOUNDARY_EXCLUDED:
                continue
            predicted = adm.verdict is lattice.Verdict.GAP_PREDICTED
            assert predicted == (adm.nu < 1.0)
            assert predicted == (ratio < SQ2)


coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(coord, coord, coord))
    def test_cubic_equivariance(self, k):
        if np.linalg.norm(k) < 1e-3:
            return
        base = lattice.classify_wavevector(k)
        for P in lattice.cubic_symmetries():
            mapped = lattice.classify_wavevector(P @ np.asarray(k))
            assert mapped.order == base.order
            want = sorted(tuple(int(c) for c in P @ np.asarray(m)) for m in base.shifts)
            assert list(mapped.shifts) == want

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*3 * [st.integers(-3, 3)]).filter(any),
           st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)),
           st.integers(1, 3), st.sampled_from([0.0, 1e-12]))
    def test_pair_checks_accept_every_listed_shift(self, m, free, digits, tol):
        # k typed as decimals on the Bragg plane of m: the free components have
        # `digits` places, the solved one (m_j = +-1 where possible) digits + 1,
        # so the doubles miss the plane by rounding alone
        j = max(range(3), key=lambda i: (abs(m[i]) == 1, m[i] != 0))
        k = [0.0, 0.0, 0.0]
        for i, a in zip([i for i in range(3) if i != j], free):
            k[i] = round(a / 1000, digits)
        rest = sum(k[i] * m[i] for i in range(3) if i != j)
        k[j] = round((sum(c * c for c in m) - 2.0 * rest) / (2 * m[j]), digits + 1)
        if not any(k):
            return
        for s in lattice.enumerate_candidate_shifts(k, tol):
            lattice.gap_admissible(k, s, tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(coord, coord, coord))
    def test_enumeration_box_is_exhaustive(self, k):
        kv = np.asarray(k)
        norm = np.linalg.norm(kv)
        if norm < 1e-3:
            return
        tol = lattice.DEFAULT_TOL
        inside = set(lattice.enumerate_candidate_shifts(kv, tol))
        big = math.ceil(4.0 * norm) + 2
        brute = set()
        rng = np.arange(-big, big + 1)
        M = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), -1).reshape(-1, 3)
        m2 = np.sum(M * M, axis=1)
        ok = m2 > 0
        resid = np.abs(2.0 * (M[ok] @ kv) - m2[ok]) <= tol * np.maximum(1.0, m2[ok])
        for m in M[ok][resid]:
            brute.add(tuple(int(c) for c in m))
        assert brute == inside


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestStabiliser:
    @pytest.mark.parametrize("k", [(0, 0, 0.5), (0, -0.5, 0), (0.5, 0.2, 0.2), (0.5, 0.2, 0.0),
                                   (0.3, 0.2, 0.1), (0.5, 0.5, 0.5), (-0.2, 0.2, 0.0), (0, 0, 0)])
    def test_is_every_cube_symmetry_that_fixes_k_and_a_group(self, k):
        group = lattice.stabiliser(k)
        want = [tuple(map(tuple, R.astype(int).tolist()))
                for R in lattice.cubic_symmetries() if np.array_equal(R @ np.asarray(k), k)]
        assert group == tuple(want) and group[0] == IDENTITY
        elements = set(group)
        assert len(elements) == len(group)
        for R in group:
            assert tuple(map(tuple, np.transpose(R).tolist())) in elements  # R^-1 = R^T
            for S in group:
                assert tuple(map(tuple, (np.asarray(R) @ S).tolist())) in elements

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_signed_axis_has_eight(self, axis, sign):
        k = np.zeros(3)
        k[axis] = 0.5 * sign
        assert len(lattice.stabiliser(k)) == 8

    def test_equal_components_add_their_swap(self):
        assert lattice.stabiliser((0.5, 0.2, 0.2)) == (IDENTITY, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))

    @pytest.mark.parametrize("k", [(0, 0, 0.5), (0.5, 0.2, 0.2), (0.3, 0.2, 0.1), (0, 0, 0)])
    @pytest.mark.parametrize("period", [5, 8])
    def test_orbits_partition_the_points(self, k, period):
        # the cube |p_i| <= 2, distinct mod 5, or the indices 0..7 of an FD grid
        group = lattice.stabiliser(k)
        points = lattice.integer_cube(2) if period == 5 else np.indices((8, 8, 8)).reshape(3, -1).T
        first, number = lattice.orbits(points, group, period)
        assert np.all(np.diff(first) > 0) and np.array_equal(number[first], np.arange(first.size))
        index = {tuple(p): i for i, p in enumerate((points % period).tolist())}
        for i, p in enumerate(points):
            orbit = {index[tuple(np.asarray(R) @ p % period)] for R in group}
            assert set(np.flatnonzero(number == number[i])) == orbit

    @pytest.mark.parametrize("k", [(0, 0, 0.5), (0.5, 0.2, 0), (0.5, 0.2, 0.2)])
    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_orbits_match_the_int64_form_on_fd_grids(self, k, n):
        # the reference maps the (N, 3) points in int64; orbits maps them in int32
        group = lattice.stabiliser(k)
        points = np.stack(np.unravel_index(np.arange(n**3), (n, n, n)), axis=1)
        radix = np.array([n * n, n, 1], dtype=np.int64)
        key = functools.reduce(np.minimum, (points @ np.transpose(R) % n @ radix for R in group))
        first = np.flatnonzero(points % n @ radix == key)
        order = np.argsort(key[first])
        got = lattice.orbits(points, group, n)
        assert np.array_equal(got[0], first)
        assert np.array_equal(got[1], order[np.searchsorted(key[first], key, sorter=order)])


def test_wave_vector_messages_print_plain_floats(monkeypatch):
    # numpy 2 prints np.float64(0.5) for a scalar taken from an array
    from bandscan import dirichlet, transmission, twomode
    from bandscan.errors import TrackingError
    from bandscan.oracle import gapscan

    def message(call):
        with pytest.raises((DomainError, TrackingError)) as exc:
            call()
        assert "np.float64" not in str(exc.value)
        return str(exc.value)

    k = np.array([0.0, 0.0, 0.5])
    generic = (0.3, 0.1, 0.2)
    materials = transmission.MaterialSpec(1.0, 1.2, 1.2, 1.0)
    assert "(0.3, 0.1, 0.2)" in message(lambda: lattice.gap_admissible(generic, (1, 0, 0)))
    # the model of either problem admits the pair through the one pair_model
    for p in (dirichlet.DirichletParams(a=0.1), transmission.TransmissionParams(materials, a=0.5)):
        assert "(0.3, 0.1, 0.2)" in message(lambda: twomode.pair_model(generic, (1, 0, 0), p))
        higher = message(lambda: twomode.pair_model((0.5, 0.5, 0.5), (1, 0, 0), p))
        assert "(0.5, 0.5, 0.5)" in higher and "higher-order" in higher
    assert "(0.0, 0.0, 0.5)" in message(
        lambda: gapscan._auto_count(np.zeros(20), k, center=1.0, window=1.0, margin=0))
    # a pair on its plane that the classification, patched, calls non-exceptional
    monkeypatch.setattr(lattice, "classify_wavevector", lambda *a: lattice.ExceptionalClass(()))
    assert "(0.0, 0.0, 0.5)" in message(lambda: lattice.gap_admissible(k, (0, 0, 1)))


def test_shift_search_past_its_cap_is_refused_and_named():
    # the search box grows as (4|k|)^3, so each caller names the vector whose
    # norm sets it; none of these builds the box
    past = lattice.MAX_SEARCH_NORM * (1.0 + 1e-9)
    with pytest.raises(DomainError, match=r"^k: the candidate-shift search"):
        lattice.classify_wavevector((0.0, past, 0.0))
    with pytest.raises(DomainError, match=r"^k: the candidate-shift search"):
        lattice.classify_wavevector_exact((0, Fraction(past).limit_denominator(10**9), 0))
    with pytest.raises(DomainError, match=r"^k0: the candidate-shift search"):
        lattice.gap_admissible((0.0, 0.0, 36.5), (0, 0, 73))
    with pytest.raises(DomainError, match=r"^m0: the candidate-shift search"):
        lattice.face_gap_region((72, 0, 0), samples=11)


@pytest.fixture(scope="module")
def fmap():
    return lattice.face_gap_region((0, 0, 1), samples=101)

class TestFaceGapRegion:
    def _flag(self, fmap, t1, t2):
        i = int(round((t1 + 1.0) / 0.02))
        j = int(round((t2 + 1.0) / 0.02))
        return bool(fmap.flagged[i, j])

    def test_center_inside(self, fmap):
        assert self._flag(fmap, 0.0, 0.0)

    def test_disk_points(self, fmap):
        assert self._flag(fmap, 0.2, 0.1)  # 0.05 < 0.25
        assert not self._flag(fmap, 0.41, 0.31)  # 0.2642 > 0.25
        assert not self._flag(fmap, 0.5, 0.5)

    def test_flagged_set_is_the_disk(self, fmap):
        T1, T2 = np.meshgrid(fmap.t1, fmap.t2, indexing="ij")
        r2 = T1**2 + T2**2
        # strict interior/exterior pixels must match; the circle itself may
        # land either way within one pixel
        pix = 0.02 * math.sqrt(2.0)
        interior = r2 < (0.5 - pix) ** 2
        exterior = r2 > (0.5 + pix) ** 2
        assert fmap.flagged[interior].all()
        assert not fmap.flagged[exterior].any()

    def test_area_conventions(self, fmap):
        assert fmap.flagged_area() == pytest.approx(math.pi / 4.0, rel=0.03)
        assert fmap.flagged_fraction() == pytest.approx(math.pi / 16.0, rel=0.03)

    def test_other_axes_match(self):
        a = lattice.face_gap_region((0, 0, 1), samples=41)
        b = lattice.face_gap_region((0, 1, 0), samples=41)
        c = lattice.face_gap_region((-1, 0, 0), samples=41)
        assert int(a.flagged.sum()) == int(b.flagged.sum()) == int(c.flagged.sum())

    def test_bad_input(self):
        with pytest.raises(DomainError):
            lattice.face_gap_region((0, 0, 0))
        with pytest.raises(DomainError):
            lattice.face_gap_region((0, 0, 1), samples=1)

    @pytest.mark.parametrize("samples, half_width", [(41, 1.0), (64, 2.0), (31, 3.0)])
    def test_pruned_blocks_match_the_full_residual_matrix(self, samples, half_width):
        # the flags of the plain formula, every candidate of the box in one
        # residual matrix, against the pruned, blocked map; and the CSV
        # against a writer that formats every pixel's coordinates
        shifts = [m for m in itertools.product(range(-2, 3), repeat=3) if any(m)]
        assert len(shifts) == 124
        t = np.linspace(-half_width, half_width, samples)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        for m0 in shifts:
            m = np.asarray(m0, dtype=float)
            e1, e2 = lattice._face_basis(m0)
            Kf = (m / 2.0 + T1[..., None] * e1 + T2[..., None] * e2).reshape(-1, 3)
            kmax = float(np.max(np.linalg.norm(Kf, axis=1)))
            ms, msq = lattice._candidate_box(math.ceil(2.0 * kmax) + 1)
            ratio = np.linalg.norm(Kf, axis=1) / math.sqrt(m @ m)
            # a pixel outside the gap ratio is never flagged, whatever its count
            inside = ratio < SQ2 - lattice.DEFAULT_EXCLUSION_BAND
            resid = np.abs(2.0 * (Kf[inside] @ ms.T) - msq[None, :])
            for tol in (0.0, 1e-9, 1e-3):
                want = np.zeros(samples * samples, dtype=bool)
                want[inside] = (resid <= tol * np.maximum(1.0, msq)[None, :]).sum(axis=1) == 1
                fmap = lattice.face_gap_region(m0, samples=samples, half_width=half_width,
                                               tol=tol)
                np.testing.assert_array_equal(fmap.flagged, want.reshape(samples, samples))
            # the writer reads only the map, so one tolerance per shift will do
            lines = ["k1,k2,gap_flag\n"]
            for t1, row in zip(fmap.t1.tolist(), fmap.flagged.tolist()):
                for t2, flag in zip(fmap.t2.tolist(), row):
                    lines.append(f"{t1!r},{t2!r},{int(flag)}\n")
            out = io.StringIO()
            write_face_map_csv(fmap, out)
            assert out.getvalue() == "".join(lines), m0
