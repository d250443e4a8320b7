"""Side-by-side comparison of the asymptotic formulas against the oracles.

Each row is (quantity, asymptotic, numeric, rel_diff) with
rel_diff = |numeric - asymptotic| / |asymptotic|, 0 when both are 0 and inf
when only the asymptotic value is.  For the Dirichlet problem at an
order-two point the table carries both candidate values of
the upper-branch splitting coefficient (the interaction-matrix eigenvalue
analysis gives twice the two-root display of the background theory); the
measured row discriminates them empirically.  Both oracles solve only the
sector even under the mirrors of k0's zero components (`lattice.mirror_axes`;
FD on an even n), which holds the g = 0 mode and an order-two pair.
"""

from __future__ import annotations

import math

import numpy as np

from . import dirichlet, lattice, transmission
from .dirichlet import DirichletParams, epsilon_nonexceptional
from .errors import DomainError
from .oracle.fd import fd_dirichlet_eigenvalues
from .oracle.pwe import pwe_transmission_eigenvalues
from .transmission import TransmissionParams, epsilon_nonexceptional_transmission

Row = tuple[str, float, float, float]


def _first_zone(k0, tol: float) -> np.ndarray:
    """k0 as an array; the lowest bands belong to k0 only where every |k0 + g| >= |k0|."""
    k0 = np.asarray(k0, dtype=float)
    if np.abs(k0).max() > 0.5 + tol:
        raise DomainError(f"k0: must lie in the first Brillouin zone, max |k0_i| <= 1/2, "
                          f"got {tuple(k0.tolist())}")
    return k0


def _row(name: str, asym: float, num: float) -> Row:
    if asym == 0.0:
        return (name, asym, num, 0.0 if num == 0.0 else math.inf)
    return (name, asym, num, abs(num - asym) / abs(asym))


def dirichlet_comparison_rows(
    k0,
    p: DirichletParams,
    n: int = 48,
    tol: float = lattice.DEFAULT_TOL,
) -> list[Row]:
    k0 = _first_zone(k0, tol)
    knorm = float(np.linalg.norm(k0))
    rows: list[Row] = []

    base = fd_dirichlet_eigenvalues(k0, 0.0, n, 1)
    rows.append(_row("zero_inclusion_omega", knorm, math.sqrt(base.eigenvalues[0])))

    cls = lattice.classify_wavevector(k0, tol)
    if cls.order == 1:
        res = fd_dirichlet_eigenvalues(k0, p.a, n, 1)
        shift_num = math.sqrt(res.eigenvalues[0]) - knorm
        shift_asym = epsilon_nonexceptional(k0, p, tol) * knorm
        rows.append(_row("nonexceptional_shift", shift_asym, shift_num))
    elif cls.order == 2:
        s = dirichlet.pair_model(k0, cls.shifts[0], p, tol=tol).s
        res = fd_dirichlet_eigenvalues(k0, p.a, n, 2)
        omega_upper = math.sqrt(res.eigenvalues[1])
        eps_num = omega_upper / knorm - 1.0
        eps_full = s / (knorm * knorm)
        rows.append(_row("eps1_vs_matrix_eigenvalue_4pi", eps_full, eps_num))
        rows.append(_row("eps1_vs_two_root_display_2pi", eps_full / 2.0, eps_num))
        rows.append(
            _row(
                "exceptional_splitting_over_c",
                s / knorm,
                omega_upper - math.sqrt(res.eigenvalues[0]),
            )
        )
    else:
        raise DomainError("comparison needs an order-one or order-two k0")
    return rows


def transmission_comparison_rows(
    k0,
    params: TransmissionParams,
    g_max: int = 3,
    tol: float = lattice.DEFAULT_TOL,
) -> list[Row]:
    k0 = _first_zone(k0, tol)
    knorm = float(np.linalg.norm(k0))
    mats = params.materials
    c_host = mats.c_plus
    rows: list[Row] = []

    uniform = TransmissionParams(
        materials=type(mats)(mats.gamma_plus, mats.gamma_plus, mats.rho_plus, mats.rho_plus),
        a=params.a,
    )
    base = pwe_transmission_eigenvalues(k0, uniform, g_max, 1)
    rows.append(
        _row(
            "zero_contrast_omega_over_c",
            knorm,
            math.sqrt(base.eigenvalues[0]) / uniform.materials.c_plus,
        )
    )

    cls = lattice.classify_wavevector(k0, tol)
    if cls.order == 2:
        res = pwe_transmission_eigenvalues(k0, params, g_max, 2)
        omegas = np.sqrt(res.eigenvalues) / c_host
        mu = transmission.pair_model(k0, cls.shifts[0], params, tol=tol).s
        rows.append(
            _row("band_splitting_over_c", mu / knorm, float(omegas[1] - omegas[0]))
        )
    elif cls.order == 1:
        res = pwe_transmission_eigenvalues(k0, params, g_max, 1)
        eps_num = math.sqrt(res.eigenvalues[0]) / (c_host * knorm) - 1.0
        eps_asym = epsilon_nonexceptional_transmission(k0, params, tol)
        rows.append(_row("nonexceptional_epsilon", eps_asym, eps_num))
    else:
        raise DomainError("comparison needs an order-one or order-two k0")
    return rows
