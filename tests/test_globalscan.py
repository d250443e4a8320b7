import math
import re

import numpy as np
import pytest

from conftest import reference_cover_frequency

from bandscan import globalscan, lattice
from bandscan.dirichlet import CELL_VOLUME, DirichletParams
from bandscan.errors import DomainError, NumericalError


def test_zero_inclusion_is_exact_cone():
    p = DirichletParams(a=0.0)
    K, residual = globalscan.cover_frequency(0.7, p)
    assert K.shape == (1, 3) and residual.shape == (1,)
    assert residual[0] < 1e-14
    assert np.linalg.norm(K[0]) == pytest.approx(0.7, rel=1e-15)
    assert lattice.classify_wavevector(K[0]) == ()


def test_residuals_below_contract():
    p = DirichletParams(a=0.1)
    omega, K, residual = globalscan.global_scan(0.4, 1.2, 50, p)
    assert omega.tolist() == np.linspace(0.4, 1.2, 50).tolist()
    assert K.shape == (50, 3)
    assert residual.max() < 1e-10
    assert all(lattice.classify_wavevector(k) == () for k in K)


def test_exceptional_direction_gets_perturbed():
    # the ray (0,0,1) hits the exceptional point k = (0,0,0.5) exactly at
    # omega = 0.5 + A/0.5; the scan must sidestep it and still cover
    p = DirichletParams(a=0.1)
    A = 2.0 * math.pi * p.q * p.a / CELL_VOLUME
    omega_star = 0.5 + A / 0.5
    K, residual = globalscan.cover_frequency(omega_star, p, direction=(0.0, 0.0, 1.0))
    assert lattice.classify_wavevector(K[0]) == ()
    assert K[0, 0] != 0.0  # off the axis
    assert residual[0] < 1e-10


def test_window_validation():
    p = DirichletParams(a=0.1)
    with pytest.raises(DomainError):
        globalscan.global_scan(1.2, 0.4, 10, p)
    with pytest.raises(DomainError):
        globalscan.global_scan(-1.0, 0.4, 10, p)
    with pytest.raises(DomainError):
        globalscan.global_scan(0.4, 1.2, 0, p)
    with pytest.raises(DomainError):
        globalscan.cover_frequency(0.5, p, direction=(0, 0, 0))
    # on an axis ray an infinite omega would give NaN components (inf * 0)
    for omega, shown in ((math.inf, "inf"), (math.nan, "nan"), ([0.5, -1.0], "-1.0")):
        text = f"omega_over_c: must be > 0 and finite, got {shown}"
        with pytest.raises(DomainError, match=f"^{text}$"):
            globalscan.cover_frequency(omega, p, direction=(0.0, 0.0, 1.0))


def test_closed_form_root_along_ray():
    # upper root of t + A/t = omega; no real root once omega^2 <= 4A
    for omega, A in ((0.4, 0.0), (0.7, 1e-3), (1.2, 0.05), (0.45, 0.05)):
        t = globalscan._root_along_ray(omega, A)
        assert t >= math.sqrt(A)
        assert abs(t + A / t - omega) <= 1e-12 * omega
    with pytest.raises(NumericalError):
        globalscan._root_along_ray(0.3, 0.04)


@pytest.mark.parametrize("seed, samples", [(0, 1), (1, 2), (2, 37), (3, 500), (4, 1333), (5, 2000)])
def test_array_pass_matches_the_per_omega_reference(seed, samples):
    # one pass over the whole grid gives, bit for bit, the rows of one cover
    # per omega: the same root, direction, norm and residual
    rng = np.random.default_rng(seed)
    p = DirichletParams(a=float(rng.uniform(0.0, 0.3)))
    lo = float(rng.uniform(0.2, 2.0))
    omega, K, residual = globalscan.global_scan(lo, lo + float(rng.uniform(1e-3, 3.0)), samples, p)
    assert len(omega) == len(K) == len(residual) == samples
    for om, k, res in zip(omega.tolist(), K.tolist(), residual.tolist()):
        assert (tuple(k), 1, res) == reference_cover_frequency(om, p)[:3]


@pytest.mark.parametrize("tol", [lattice.DEFAULT_TOL, 1e-5])
def test_perturbed_rows_take_the_reference_attempt(tol):
    # on the (0, 0, 1) ray, k = (0, 0, t) is exceptional at t = 0.5 and 1 (and,
    # at tol 1e-5, on a band around each); each row that the per-omega loop
    # perturbs must land on the same direction in the array pass
    p = DirichletParams(a=0.1)
    A = p.epsilon(1.0)
    stars = [t + A / t for t in (0.5, 1.0)]
    omegas = np.sort(np.concatenate(
        [np.linspace(0.4, 1.6, 301), stars, np.linspace(stars[0] - 2e-5, stars[0] + 2e-5, 41)]))
    K, residual = globalscan.cover_frequency(omegas, p, direction=(0.0, 0.0, 1.0), tol=tol)
    refs = [reference_cover_frequency(om, p, (0.0, 0.0, 1.0), tol) for om in omegas.tolist()]
    assert [(tuple(k), 1, r) for k, r in zip(K.tolist(), residual.tolist())] == [
        ref[:3] for ref in refs]
    attempts = np.array([ref[3] for ref in refs])
    perturbed = omegas[attempts > 0]
    assert set(stars) <= set(perturbed.tolist())
    if tol > lattice.DEFAULT_TOL:
        assert len(perturbed) > len(stars)


def test_running_out_of_perturbations_names_the_first_uncovered_omega(monkeypatch):
    monkeypatch.setattr(globalscan, "MAX_PERTURBATIONS", 0)
    p = DirichletParams(a=0.1)
    A = p.epsilon(1.0)
    stars = [t + A / t for t in (0.5, 1.0)]
    with pytest.raises(NumericalError, match=re.escape(
            f"could not find a non-exceptional cover for omega/c={stars[0]}") + "$"):
        globalscan.cover_frequency(np.array([0.45, stars[0], 0.8, stars[1]]), p,
                                   direction=(0.0, 0.0, 1.0))
