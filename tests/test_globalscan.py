import math

import numpy as np
import pytest

from bandscan import globalscan
from bandscan.dirichlet import CELL_VOLUME, DirichletParams
from bandscan.errors import DomainError, NumericalError


def test_zero_inclusion_is_exact_cone():
    p = DirichletParams(a=0.0)
    row = globalscan.cover_frequency(0.7, p)
    assert row.residual < 1e-14
    assert np.linalg.norm(row.k) == pytest.approx(0.7, rel=1e-15)
    assert row.order == 1


def test_residuals_below_contract():
    p = DirichletParams(a=0.1)
    rows = globalscan.global_scan(0.4, 1.2, 50, p)
    assert len(rows) == 50
    assert max(r.residual for r in rows) < 1e-10
    assert all(r.order == 1 for r in rows)


def test_exceptional_direction_gets_perturbed():
    # the ray (0,0,1) hits the exceptional point k = (0,0,0.5) exactly at
    # omega = 0.5 + A/0.5; the scan must sidestep it and still cover
    p = DirichletParams(a=0.1)
    A = 2.0 * math.pi * p.q * p.a / CELL_VOLUME
    omega_star = 0.5 + A / 0.5
    row = globalscan.cover_frequency(omega_star, p, direction=(0.0, 0.0, 1.0))
    assert row.order == 1
    assert row.residual < 1e-10


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


def test_closed_form_root_along_ray():
    # upper root of t + A/t = omega; no real root once omega^2 <= 4A
    for omega, A in ((0.4, 0.0), (0.7, 1e-3), (1.2, 0.05), (0.45, 0.05)):
        t = globalscan._root_along_ray(omega, A)
        assert t >= math.sqrt(A)
        assert abs(t + A / t - omega) <= 1e-12 * omega
    with pytest.raises(NumericalError):
        globalscan._root_along_ray(0.3, 0.04)
