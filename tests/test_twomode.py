import copy
import math
import warnings

import numpy as np
import pytest
from conftest import at_volume_fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bandscan import GapStatus, lattice, transmission, twomode
from bandscan.dirichlet import DirichletParams
from bandscan.errors import DomainError
from bandscan.transmission import MaterialSpec, TransmissionParams

K_EX = (0.0, 0.0, 0.5)
M_EX = (0, 0, 1)
SHIFTS = [(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, -1), (1, 1, 1), (1, -1, 2), (2, 0, 1)]


def face_point(m0, theta, ratio):
    """k0 on the face 2 k.m0 = |m0|^2 with |k0|/|m0| = ratio."""
    m = np.asarray(m0, dtype=float)
    m2 = float(m @ m)
    probe = np.eye(3)[np.argmin(np.abs(m))]
    e1 = probe - (probe @ m) / m2 * m
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m, e1) / math.sqrt(m2)
    r = math.sqrt(m2 * (ratio * ratio - 0.25))
    return m / 2.0 + r * (math.cos(theta) * e1 + math.sin(theta) * e2)


materials = st.builds(
    MaterialSpec, *[st.floats(min_value=0.5, max_value=2.0) for _ in range(4)]
)
params = st.one_of(
    st.builds(
        DirichletParams,
        a=st.floats(min_value=0.01, max_value=0.6),
        q=st.floats(min_value=0.5, max_value=2.0),
    ),
    st.builds(TransmissionParams, materials=materials, a=st.floats(min_value=0.1, max_value=0.9)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHIFTS),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.51, max_value=0.70),
    params,
)
# dt* = 0.132 lies outside the default ray half-width 0.1
@example(m0=(0, 0, 1), theta=0.0, ratio=0.6953125, p=DirichletParams(a=0.5, q=2.0))
# s = 7.8e-9: the peak is flatter than the rounding of omega ~ 0.5
@example(
    m0=(0, 0, 1),
    theta=0.0,
    ratio=0.515625,
    p=TransmissionParams(MaterialSpec(1.0, 1.0, 0.6784019924323472, 0.6796875), a=0.1015625),
)
# s = 5.1e-20: the gap is narrower than the rounding of omega ~ 0.625
@example(
    m0=(0, 0, 1),
    theta=0.0,
    ratio=0.625,
    p=TransmissionParams(MaterialSpec(0.5, 0.5, 0.5, 0.5000000000000001), a=0.5),
)
def test_gap_edges_are_the_extrema_of_a_fine_scan(m0, theta, ratio, p):
    # 0 < nu < 1: the lower branch peaks at +delta_tilde*, the upper one dips
    # at -delta_tilde*; both are samples of the 2,001-point scan over
    # [-2 delta_tilde*, 2 delta_tilde*]
    k0 = face_point(m0, theta, ratio)
    assume(1 + len(lattice.classify_wavevector(k0)) == 2)
    model = twomode.pair_model(k0, m0, p)
    assume(model.s > 0.0)
    assert 0.0 < model.nu < 1.0
    status, gap = model.gap()
    if status is GapStatus.DEGENERATE_SPLITTING:
        # edges that round together leave no gap interval; they once raised a ValueError
        assert gap is None and model.s < 1e-12 * model.centre
        return
    assert status is GapStatus.PREDICTED
    d = model.extremizer()
    _, lower, upper = model.scan((-2.0 * d, 2.0 * d), 2001)
    assert abs(lower.max() - gap.lo_over_c) <= 1e-12
    assert abs(upper.min() - gap.hi_over_c) <= 1e-12
    # The extrema sit where the splitting terms do, whatever the centre. Near
    # them the branches bend by ~1e-6 s per step, which rounding at the pair
    # frequency hides when s is small, so locate them on the centre-free model.
    shape = copy.copy(model)
    shape.centre = 0.0
    dts, lower, upper = shape.scan((-2.0 * d, 2.0 * d), 2001)
    step = 4.0 * d / 2000
    assert abs(dts[np.argmax(lower)] - d) <= step
    assert abs(dts[np.argmin(upper)] + d) <= step
    # dt* may lie beyond the default ray half-width 0.1, which the branches do not bound
    assert abs(model.branches(d)[0] - gap.lo_over_c) <= 1e-12
    assert abs(model.branches(-d)[1] - gap.hi_over_c) <= 1e-12


@pytest.mark.parametrize(
    "p",
    [
        DirichletParams(a=0.2),
        at_volume_fraction(MaterialSpec(1.0, 1.2, 1.2, 1.0), 0.01),
    ],
)
def test_one_sample_scan_is_the_scalar_branch(p):
    model = twomode.pair_model((0.5, 0.2, 0.0), (1, 0, 0), p)
    for dt in (-0.07, 0.0, 0.013):
        _, lower, upper = model.scan((dt, dt), 1)
        lo, hi = model.branches(dt)
        assert lower[0] == lo
        assert upper[0] == hi


def test_pair_is_classified_once(monkeypatch):
    calls = []
    classify = lattice.classify_wavevector
    monkeypatch.setattr(lattice, "classify_wavevector", lambda *a: calls.append(a) or classify(*a))
    model = twomode.pair_model(K_EX, M_EX, DirichletParams(a=0.1))
    model.scan((-0.05, 0.05), 2001)
    model.gap()
    assert len(calls) == 1


def test_exclusion_band_is_refused_by_the_admission():
    # |k0|/|m0| = sqrt(2)/2 on the plane of m0; once refused only by the model's gap()
    with pytest.raises(DomainError) as exc:
        twomode.order_two_admissibility((0.5, 0.3, 0.4), (1, 0, 0))
    ratio = lattice.gap_admissible((0.5, 0.3, 0.4), (1, 0, 0)).ratio
    assert str(exc.value) == f"|k0|/|m0|={ratio} inside the exclusion band around sqrt(2)/2"


def test_the_admission_is_checked_before_the_splitting(monkeypatch):
    # the model refuses an admission that excludes its pair, naming it, before it asks the
    # params for their centre and splitting; k0 = m0 would put k1 = k0 - m0 at 0, where
    # kh0.kh1 divides by zero
    p = at_volume_fraction(MaterialSpec(1.0, 1.2, 1.2, 1.0), 0.01)
    asked = []
    splitting = TransmissionParams.centre_and_splitting
    monkeypatch.setattr(TransmissionParams, "centre_and_splitting",
                        lambda self, *args: asked.append(args) or splitting(self, *args))
    boundary = lattice.gap_admissible((0.5, 0.3, 0.4), (1, 0, 0))
    higher = lattice.gap_admissible((0.5, 0.5, 0.5), (1, 0, 0))
    k1_at_zero = lattice.shift_admissibility((1, 0, 0), (1, 0, 0), 2, 0.5)
    for adm, verdict in ((boundary, "BoundaryExcluded"), (higher, "HigherOrderExcluded"),
                         (k1_at_zero, "BoundaryExcluded")):
        assert adm.verdict.value == verdict
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as exc:
                twomode.TwoModeModel(adm, p)
        assert str(exc.value) == (f"admissibility: {verdict} admits no model of "
                                  f"(k0={adm.k0}, m0={adm.m0})")
        assert record == []
    assert asked == []


def test_the_model_is_the_admitted_pair_with_its_params():
    k0, m0 = [0.5, 0.2, 0], np.array([1, 0, 0])
    adm = twomode.order_two_admissibility(k0, m0, exclusion_band=1e-3)
    assert (adm.k0, adm.m0) == ((0.5, 0.2, 0.0), (1, 0, 0))
    assert adm == lattice.shift_admissibility((0.5, 0.2, 0.0), (1, 0, 0), 2, 1e-3)
    p = DirichletParams(a=0.1)
    model = twomode.TwoModeModel(adm, p)
    assert model.admissibility is adm and model.params is p
    assert (model.k0, model.m0, model.nu) == (adm.k0, adm.m0, adm.nu)
    assert model.knorm == lattice.wavevector_norm("k0", k0)


def test_centre_and_splitting_per_problem():
    k0, m0 = (0.5, 0.2, 0.0), (1, 0, 0)
    knorm = float(np.linalg.norm(k0))
    p = DirichletParams(a=0.15)
    model = twomode.pair_model(k0, m0, p)
    assert (model.centre, model.s) == (knorm + p.a_tilde / (2.0 * knorm), p.a_tilde)
    tp = at_volume_fraction(MaterialSpec(1.0, 1.2, 1.2, 1.0), 0.01)
    model = twomode.pair_model(k0, m0, tp)
    mats = tp.materials
    assert model.centre == knorm * (1.0 + 0.5 * (mats.alpha + mats.beta) * tp.f)
    assert model.s == transmission.coupling_mu(k0, m0, tp)


def test_extremizer_needs_nu_below_one():
    model = twomode.pair_model((0.5, 0.6, 0.3), (1, 0, 0), DirichletParams(a=0.1))
    with pytest.raises(DomainError, match="nu < 1"):
        model.extremizer()


def gap_outcome(k0, m0, p):
    """(status, lo, hi) of the pair's model, or the error the model raises."""
    try:
        status, gap = twomode.pair_model(k0, m0, p).gap()
    except DomainError as exc:
        return str(exc), None, None
    if gap is None:
        return status, None, None
    return status, gap.lo_over_c, gap.hi_over_c


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHIFTS),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.51, max_value=0.95),
    params,
)
def test_gap_is_invariant_under_the_cube_group(m0, theta, ratio, p):
    # a signed permutation R maps the lattice to itself, so (R k0, R m0) is a
    # pair with the same |k0|, |m0|, nu and splitting: the same gap
    k0 = face_point(m0, theta, ratio)
    assume(1 + len(lattice.classify_wavevector(k0)) == 2)
    status, lo, hi = gap_outcome(k0, m0, p)
    for R in lattice.cubic_symmetries():
        got_status, got_lo, got_hi = gap_outcome(R @ k0, (R @ m0).astype(int), p)
        assert got_status == status
        if lo is not None:
            assert got_lo == pytest.approx(lo, rel=1e-12, abs=0.0)
            assert got_hi == pytest.approx(hi, rel=1e-12, abs=0.0)
