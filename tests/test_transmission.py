import math

import numpy as np
import pytest
from conftest import (
    at_volume_fraction,
    epsilon_nonexceptional_transmission,
    matrix_M_transmission,
    random_order_two_pairs,
)

from bandscan import GapStatus, lattice, transmission, twomode
from bandscan.errors import DomainError
from bandscan.transmission import MaterialSpec, TransmissionParams
from bandscan.twomode import order_two_admissibility

PI3 = (2.0 * math.pi) ** 3
K_EX = (0.0, 0.0, 0.5)
M_EX = (0, 0, 1)

WEAK = MaterialSpec(gamma_plus=1.0, gamma_minus=1.2, rho_plus=1.2, rho_minus=1.0)


def weak_params(f=0.01):
    return at_volume_fraction(WEAK, f)


class TestMaterials:
    def test_identical(self):
        m = MaterialSpec(1, 1, 1, 1)
        assert (m.alpha, m.beta, m.sigma) == (0.0, 0.0, 1.0)

    def test_hand_values(self):
        m = MaterialSpec(1.0, 1.2, 1.2, 1.0)
        alpha, beta, sigma = m.alpha, m.beta, m.sigma
        assert alpha == pytest.approx(-0.2, rel=1e-12)
        assert beta == pytest.approx(0.1875, rel=1e-12)
        assert sigma == pytest.approx(1.2, rel=1e-15)

    def test_sigma_limits(self):
        beta_hi = MaterialSpec(1, 1, 1e12, 1).beta
        beta_lo = MaterialSpec(1, 1, 1e-12, 1).beta
        assert beta_hi == pytest.approx(3.0, rel=1e-10)
        assert beta_lo == pytest.approx(-1.5, rel=1e-10)

    def test_positive_inputs_required(self):
        with pytest.raises(DomainError, match="gamma_plus"):
            MaterialSpec(0.0, 1, 1, 1)
        with pytest.raises(DomainError):
            MaterialSpec(1, 1, 1, -2)

    def test_host_speed(self):
        m = MaterialSpec(4.0, 1.0, 0.25, 1.0)
        assert m.c_plus == pytest.approx(1.0)


class TestParams:
    def test_volume_fraction_roundtrip(self):
        p = weak_params(0.01)
        assert p.f == pytest.approx(0.01, rel=1e-12)
        assert transmission.volume_fraction(p.a) == pytest.approx(p.f, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            TransmissionParams(materials=WEAK, a=0.0)


class TestMatrixM:
    def test_zero_for_identical_materials(self):
        p = TransmissionParams(materials=MaterialSpec(1, 1, 1, 1), a=0.5)
        M = matrix_M_transmission(K_EX, M_EX, p, epsilon=0.0, delta=0.0)
        assert np.allclose(M, 0.0, atol=1e-15)

    def test_antiparallel_geometry(self):
        assert transmission.khat_dot(K_EX, M_EX) == pytest.approx(-1.0, rel=1e-14)

    def test_determinant_vanishes_on_branches(self):
        # the eps values implied by the branch formula are roots of det M
        p = weak_params(0.02)
        k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
        knorm2 = 0.29
        mats = p.materials
        mu = transmission.coupling_mu(k0, m0, p)
        B = p.f * knorm2 * (mats.alpha + mats.beta)
        for dt in (-0.01, 0.0, 0.004):
            delta = 2.0 * dt  # |m0|^2 = 1
            for sign in (-1.0, 1.0):
                eps_tilde = B - dt + sign * math.hypot(mu, dt)
                eps = eps_tilde / (2.0 * knorm2)
                M = matrix_M_transmission(k0, m0, p, eps, delta)
                scale = max(np.abs(M).max(), p.f * knorm2 * PI3)
                assert abs(np.linalg.det(M)) <= 1e-10 * scale * scale


class TestBranches:
    def test_identical_materials_give_cones(self):
        p = TransmissionParams(materials=MaterialSpec(1, 1, 1, 1), a=0.5)
        nu = lattice.gap_admissible(K_EX, M_EX).nu
        for dt in (-0.05, 0.0, 0.03):
            lo, hi = twomode.pair_model(K_EX, M_EX, p).branches(dt)
            assert lo == pytest.approx(0.5 + (nu * dt - abs(dt)), abs=1e-15)
            assert hi == pytest.approx(0.5 + (nu * dt + abs(dt)), abs=1e-15)

    def test_weak_contrast_splitting(self):
        p = weak_params(0.01)
        lo, hi = twomode.pair_model(K_EX, M_EX, p).branches(0.0)
        assert hi - lo == pytest.approx(1.9375e-3, rel=1e-9)

    def test_splitting_collapses_with_f(self):
        p = weak_params(1e-7)
        lo, hi = twomode.pair_model(K_EX, M_EX, p).branches(0.0)
        assert hi - lo == pytest.approx(0.0, abs=1e-7)

    def test_scan_matches_pointwise(self):
        p = weak_params(0.01)
        model = twomode.pair_model(K_EX, M_EX, p)
        for dt, lo, hi in zip(*(column.tolist() for column in model.scan((-0.02, 0.02), 5))):
            wlo, whi = model.branches(dt)
            assert (lo, hi) == (wlo, whi)


class TestLocalGap:
    def test_worked_example(self):
        p = weak_params(0.01)
        gap = twomode.pair_model(K_EX, M_EX, p).gap()[1]
        assert gap is not None
        center = 0.5 * (1.0 + 0.5 * (p.materials.alpha + p.materials.beta) * p.f)
        assert center == pytest.approx(0.49996875, rel=1e-9)
        assert gap.lo_over_c == pytest.approx(0.499, rel=1e-8)
        assert gap.hi_over_c == pytest.approx(0.5009375, rel=1e-8)

    def test_identical_materials_degenerate(self):
        p = TransmissionParams(materials=MaterialSpec(1, 1, 1, 1), a=0.5)
        status, gap = twomode.pair_model(K_EX, M_EX, p).gap()
        assert gap is None and status is GapStatus.DEGENERATE_SPLITTING

    def test_splitting_past_float64_is_refused_as_gamma_minus(self):
        # alpha = 1 - 1e308 overflows mu: the model once gave the gap (-inf, inf)
        p = TransmissionParams(materials=MaterialSpec(1, 1e308, 1, 1), a=3.8)
        with pytest.raises(DomainError,
                           match=r"^gamma_minus: centre .* and splitting inf must be finite$"):
            twomode.pair_model((3, 0.31, 0.17), (6, 0, 0), p)

    def test_nu_above_one_empty(self):
        p = weak_params(0.01)
        status, gap = twomode.pair_model((0.5, 0.6, 0.3), (1, 0, 0), p).gap()
        assert gap is None and status is GapStatus.NO_GAP_NU

    def test_width_linear_in_f(self):
        w1 = twomode.pair_model(K_EX, M_EX, weak_params(0.005)).gap()[1].width_over_c
        w2 = twomode.pair_model(K_EX, M_EX, weak_params(0.01)).gap()[1].width_over_c
        assert w2 == pytest.approx(2.0 * w1, rel=1e-9)

    def test_gap_iff_nu_below_one(self, pair_rng):
        p = weak_params(0.01)
        for k0, m0, ratio in random_order_two_pairs(pair_rng, 300):
            adm = order_two_admissibility(k0, m0, 1e-3)
            gap = twomode.TwoModeModel(adm, p).gap()[1]
            assert (gap is not None) == (lattice.gap_admissible(k0, m0).nu < 1.0)

    def test_samples_respect_gap(self):
        p = weak_params(0.01)
        k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
        model = twomode.pair_model(k0, m0, p)
        gap = model.gap()[1]
        _, lower, upper = model.scan((-0.01, 0.01), 401)
        assert lower.max() <= gap.lo_over_c + 1e-14
        assert upper.min() >= gap.hi_over_c - 1e-14


class TestEpsilonNonexceptional:
    # the params' eps against the reference formula of conftest
    def test_identical_materials(self):
        p = TransmissionParams(materials=MaterialSpec(1, 1, 1, 1), a=0.5)
        assert p.epsilon == epsilon_nonexceptional_transmission(p) == 0.0

    def test_hand_value(self):
        p = weak_params(0.01)
        assert p.epsilon == pytest.approx(-6.25e-5, rel=1e-9)
        assert p.epsilon == epsilon_nonexceptional_transmission(p)

    def test_sign_tracks_contrast(self):
        # stiff light inclusion (alpha+beta > 0) raises frequencies
        up = MaterialSpec(gamma_plus=1.0, gamma_minus=0.5, rho_plus=1.0, rho_minus=0.5)
        dn = MaterialSpec(gamma_plus=1.0, gamma_minus=2.0, rho_plus=1.0, rho_minus=2.0)
        assert at_volume_fraction(up, 0.01).epsilon > 0
        assert at_volume_fraction(dn, 0.01).epsilon < 0


def test_geometry_identity(pair_rng):
    # kh0.kh1 = (|k0|^2 - k0.m0)/|k0|^2 via |k1| = |k0|
    for k0, m0, _ in random_order_two_pairs(pair_rng, 200):
        k0v = np.asarray(k0)
        direct = transmission.khat_dot(k0, m0)
        k2 = float(k0v @ k0v)
        alt = (k2 - float(k0v @ np.asarray(m0, dtype=float))) / k2
        assert direct == pytest.approx(alt, abs=1e-12)
