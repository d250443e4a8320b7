import math

import numpy as np
import pytest
from conftest import epsilon_nonexceptional, exceptional_splitting_check, random_order_two_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from bandscan import GapStatus, lattice, twomode
from bandscan.dirichlet import DirichletParams
from bandscan.errors import DomainError
from bandscan.twomode import order_two_admissibility

PI3 = (2.0 * math.pi) ** 3
K_EX = (0.0, 0.0, 0.5)
M_EX = (0, 0, 1)


def test_params_validation():
    with pytest.raises(DomainError):
        DirichletParams(a=-0.1)
    with pytest.raises(DomainError):
        DirichletParams(a=0.5 * math.pi)
    with pytest.raises(DomainError):
        DirichletParams(a=0.1, q=0.0)
    with pytest.warns(UserWarning, match="above 0.2") as record:
        DirichletParams(a=0.21 * math.pi)
    # the caller's line, not the dataclass's generated __init__ ("<string>:5")
    assert [w.filename for w in record] == [__file__]
    assert DirichletParams(a=0.0).a_tilde == 0.0


def test_scaled_variables():
    p = DirichletParams(a=0.1, q=1.0)
    assert p.a_tilde == pytest.approx(4.0 * math.pi * 0.1 / PI3, rel=1e-15)


class TestEpsilonNonexceptional:
    # the params' eps against the reference formula of conftest
    K = (0.2, 0.1, 0.15)

    def test_hand_value(self):
        p = DirichletParams(a=0.3, q=1.0)
        eps = p.epsilon(math.sqrt(0.0725))
        assert eps == pytest.approx(2.0 * math.pi * 0.3 / (0.0725 * PI3), rel=1e-12)
        assert eps == pytest.approx(epsilon_nonexceptional(self.K, p), rel=1e-15)

    def test_vanishes_with_a(self):
        p = DirichletParams(a=0.0)
        assert p.epsilon(math.sqrt(0.0725)) == epsilon_nonexceptional(self.K, p) == 0.0

    def test_linear_in_q(self):
        e1 = DirichletParams(a=0.2, q=1.0).epsilon(math.sqrt(0.0725))
        e2 = DirichletParams(a=0.2, q=2.0).epsilon(math.sqrt(0.0725))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-15)


class TestBranchPair:
    def test_splitting_at_zero_offset(self):
        p = DirichletParams(a=0.1, q=1.0)
        lo, hi = twomode.pair_model(K_EX, M_EX, p).branches(0.0)
        assert lo == pytest.approx(0.5, abs=1e-15)
        assert hi == pytest.approx(0.5 + p.a_tilde / 0.5, rel=1e-14)
        assert hi == pytest.approx(0.5101321183642338, rel=1e-12)

    def test_large_offset_asymptote(self):
        p = DirichletParams(a=0.01)
        nu = 0.0
        dt = 0.09
        _, hi = twomode.pair_model(K_EX, M_EX, p).branches(dt)
        asym = 0.5 + (p.a_tilde + (nu + 1.0) * dt) / (2.0 * 0.5)
        # sqrt(at^2 + dt^2) -> dt with an O(at^2/dt) defect
        assert hi == pytest.approx(asym, abs=p.a_tilde**2 / dt)

    def test_zero_scale_recovers_cones(self):
        p = DirichletParams(a=0.0)
        nu = lattice.gap_admissible(K_EX, M_EX).nu
        for dt in (-0.08, -0.01, 0.0, 0.02, 0.09):
            lo, hi = twomode.pair_model(K_EX, M_EX, p).branches(dt)
            assert lo == pytest.approx(0.5 + (nu * dt - abs(dt)) / 1.0, abs=1e-15)
            assert hi == pytest.approx(0.5 + (nu * dt + abs(dt)) / 1.0, abs=1e-15)

    def test_ray_width_enforced(self):
        p = DirichletParams(a=0.1)
        with pytest.raises(DomainError):
            twomode.pair_model(K_EX, M_EX, p).branches(0.2)
        twomode.pair_model(K_EX, M_EX, p).branches(0.2, delta0=0.25)

    def test_non_order_two_rejected(self):
        p = DirichletParams(a=0.1)
        with pytest.raises(DomainError):
            twomode.pair_model((0.3, 0.1, 0.2), (1, 0, 0), p).branches(0.0)
        with pytest.raises(DomainError):
            twomode.pair_model((0.5, 0.5, 0), (1, 0, 0), p).branches(0.0)


class TestLocalGap:
    def test_face_center_gap(self):
        p = DirichletParams(a=0.1, q=1.0)
        gap = twomode.pair_model(K_EX, M_EX, p).gap()[1]
        assert gap is not None
        assert gap.lo_over_c == pytest.approx(0.5, abs=1e-15)
        assert gap.hi_over_c == pytest.approx(0.5101321183642338, rel=1e-12)

    def test_no_gap_above_threshold(self):
        p = DirichletParams(a=0.1)
        status, gap = twomode.pair_model((0.5, 0.6, 0.3), (1, 0, 0), p).gap()
        assert gap is None and status is GapStatus.NO_GAP_NU

    def test_zero_scale_degenerate(self):
        p = DirichletParams(a=0.0)
        status, gap = twomode.pair_model(K_EX, M_EX, p).gap()
        assert gap is None and status is GapStatus.DEGENERATE_SPLITTING

    def test_width_shrinks_with_a(self):
        w = [
            twomode.pair_model(K_EX, M_EX, DirichletParams(a=a)).gap()[1].width_over_c
            for a in (0.2, 0.1, 0.05)
        ]
        assert w[0] > w[1] > w[2]
        assert w[1] == pytest.approx(w[0] / 2.0, rel=1e-12)

    def test_boundary_band_rejected(self):
        p = DirichletParams(a=0.1)
        with pytest.raises(DomainError):
            twomode.pair_model((0.5, 0.3, 0.4), (1, 0, 0), p).gap()[1]

    def test_edges_are_branch_extrema(self):
        # edges at (a_tilde/(2|k0|)) * (1 -+ sqrt(1-nu^2)), attained at
        # delta_tilde = +-a_tilde*nu/sqrt(1-nu^2)
        k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
        p = DirichletParams(a=0.15)
        nu = lattice.gap_admissible(k0, m0).nu
        model = twomode.pair_model(k0, m0, p)
        gap = model.gap()[1]
        knorm = math.sqrt(0.29)
        s = math.sqrt(1.0 - nu * nu)
        assert gap.lo_over_c == pytest.approx(knorm + p.a_tilde * (1 - s) / (2 * knorm), rel=1e-13)
        assert gap.hi_over_c == pytest.approx(knorm + p.a_tilde * (1 + s) / (2 * knorm), rel=1e-13)
        dt_star = model.extremizer()
        lo_at_star, _ = model.branches(dt_star)
        _, hi_at_star = model.branches(-dt_star)
        assert lo_at_star == pytest.approx(gap.lo_over_c, rel=1e-13)
        assert hi_at_star == pytest.approx(gap.hi_over_c, rel=1e-13)


class TestDispersionScan:
    def test_single_sample_matches_branch_pair(self):
        p = DirichletParams(a=0.1)
        model = twomode.pair_model(K_EX, M_EX, p)
        curve = model.scan((0.03, 0.03), 1)
        lo, hi = model.branches(0.03)
        assert curve.omega_minus_over_c[0] == lo
        assert curve.omega_plus_over_c[0] == hi

    def test_symmetric_for_nu_zero(self):
        p = DirichletParams(a=0.1)
        curve = twomode.pair_model(K_EX, M_EX, p).scan((-0.05, 0.05), 21)
        assert np.allclose(curve.omega_plus_over_c, curve.omega_plus_over_c[::-1])
        assert np.allclose(curve.omega_minus_over_c, curve.omega_minus_over_c[::-1])

    def test_samples_respect_gap(self):
        k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
        p = DirichletParams(a=0.15)
        model = twomode.pair_model(k0, m0, p)
        gap = model.gap()[1]
        curve = model.scan((-0.05, 0.05), 301)
        assert curve.omega_minus_over_c.max() <= gap.lo_over_c + 1e-12
        assert curve.omega_plus_over_c.min() >= gap.hi_over_c - 1e-12

    def test_sorted_and_sized(self):
        p = DirichletParams(a=0.1)
        curve = twomode.pair_model(K_EX, M_EX, p).scan((-0.02, 0.02), 9)
        assert len(curve) == 9
        assert np.all(np.diff(curve.delta_tilde) > 0)


class TestSplittingCheck:
    def test_hand_value(self):
        p = DirichletParams(a=0.1, q=1.0)
        e1, e2 = exceptional_splitting_check(K_EX, M_EX, p)
        assert e1 == pytest.approx(0.020264236728467555, rel=1e-12)
        assert e2 == pytest.approx(0.0, abs=1e-15)

    def test_consistent_with_branch(self):
        p = DirichletParams(a=0.17, q=1.3)
        e1, _ = exceptional_splitting_check(K_EX, M_EX, p)
        _, hi = twomode.pair_model(K_EX, M_EX, p).branches(0.0)
        assert (1.0 + e1) * 0.5 == pytest.approx(hi, rel=1e-13)

    def test_zero_scale(self):
        p = DirichletParams(a=0.0)
        assert exceptional_splitting_check(K_EX, M_EX, p) == (0.0, 0.0)


nu_vals = st.floats(min_value=0.0, max_value=3.0)
at_vals = st.floats(min_value=0.0, max_value=0.05)
dt_vals = st.floats(min_value=-0.1, max_value=0.1)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(at_vals, dt_vals)
    def test_branch_ordering(self, at, dt):
        # omega_plus >= omega_minus for any parameters of the closed form
        knorm = 0.5
        for nu in (0.0, 0.4, 1.8):
            root = math.hypot(at, dt)
            lo = knorm + (at + nu * dt - root) / (2 * knorm)
            hi = knorm + (at + nu * dt + root) / (2 * knorm)
            assert hi >= lo

    def test_branch_ordering_via_api(self, pair_rng):
        for k0, m0, _ in random_order_two_pairs(pair_rng, 60):
            p = DirichletParams(a=float(pair_rng.uniform(0.0, 0.4)))
            for dt in np.linspace(-0.1, 0.1, 11):
                lo, hi = twomode.pair_model(k0, m0, p).branches(float(dt))
                assert hi >= lo

    def test_gap_exists_iff_nu_below_one(self, pair_rng):
        p = DirichletParams(a=0.1)
        for k0, m0, ratio in random_order_two_pairs(pair_rng, 1000):
            adm = order_two_admissibility(k0, m0, 1e-3)
            gap = twomode.pair_model(k0, m0, p, admissibility=adm).gap()[1]
            assert (gap is not None) == (lattice.gap_admissible(k0, m0).nu < 1.0)

    def test_gap_scales_linearly_in_a_and_q(self):
        k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
        w = twomode.pair_model(k0, m0, DirichletParams(a=0.1, q=1.0)).gap()[1].width_over_c
        w2a = twomode.pair_model(k0, m0, DirichletParams(a=0.2, q=1.0)).gap()[1].width_over_c
        w2q = twomode.pair_model(k0, m0, DirichletParams(a=0.1, q=2.0)).gap()[1].width_over_c
        assert w2a == pytest.approx(2.0 * w, rel=1e-12)
        assert w2q == pytest.approx(2.0 * w, rel=1e-12)

    def test_cone_recovery_first_order(self, pair_rng):
        # at a = 0 the branches agree with the exact cones to O(delta^2)
        p = DirichletParams(a=0.0)
        for k0, m0, _ in random_order_two_pairs(pair_rng, 20):
            k0v = np.asarray(k0)
            m0v = np.asarray(m0, dtype=float)
            m2 = float(m0v @ m0v)
            for delta in np.linspace(-0.05, 0.05, 11):
                dt = delta * m2 / 2.0
                if abs(dt) > 0.1:
                    continue
                lo, hi = twomode.pair_model(k0, m0, p).branches(float(dt))
                c0 = float(np.linalg.norm((1 + delta) * k0v))
                c1 = float(np.linalg.norm((1 + delta) * k0v - m0v))
                assert abs(lo - min(c0, c1)) <= 10.0 * delta * delta + 1e-14
                assert abs(hi - max(c0, c1)) <= 10.0 * delta * delta + 1e-14
