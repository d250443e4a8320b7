"""Plane-wave-expansion eigensolver for the penetrable-sphere problem.

The weak form div(grad u / rho) + omega^2 gamma u = 0 with Bloch vector k
becomes, in the Fourier basis u = sum_g u_g e^{i (k+g).x},

    sum_g' (k+g).(k+g') eta^(g-g') u_g' = omega^2 sum_g' gamma^(g-g') u_g',

with eta = 1/rho.  Both coefficient fields are piecewise constant with a
sphere at the origin, so their Fourier coefficients come from the analytic
ball-indicator transform (never from FFT sampling).  The pencil (A, B) is
real symmetric with B positive definite; a uniform medium gives
omega^2 = c^2 |k+g|^2 exactly.

eta and gamma depend on g - g' only, which lies on the (4 g_max + 1)^3
difference lattice, so the transform is evaluated there and gathered by the
integer code of g - g' (the Toeplitz structure of Ho, Chan & Soukoulis,
PRL 65, 3152, 1990).  The sphere is centred and isotropic, so every signed
permutation R of the axes with R k = k commutes with (A, B).  A solve keeps
only the sector symmetric under their group G (`lattice.stabiliser`), one
mode per orbit, gathered straight into the orthonormal symmetrised basis
(Sakoda, Optical Properties of Photonic Crystals, 2005, ch. 3): at an
order-two k0 both plane waves of the pair lie in it.  `free_spectrum` gives
the sector's values without the inclusion.

The modes, blocks and Cholesky factor L of the sector's B are built once per
(params, g_max, G).  Each k then runs the steps of LAPACK's xSYGVX
past its Cholesky step, sygst, syevx and a triangular back-substitution
(Anderson et al., LAPACK Users' Guide, 3rd ed., 2.3.5.1), so its numbers
are those of `scipy.linalg.eigh(A, B, subset_by_index=...)` bit for bit.
"""

from __future__ import annotations

import warnings
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg import lapack

from ..errors import DomainError, NumericalError
from ..lattice import as_wavevector, integer_cube, orbits, require_between, stabiliser
from ..transmission import MAX_G_MAX, MIN_G_MAX, TransmissionParams, volume_fraction
from .eig import EigResult, outside_stacklevel


def sphere_indicator_fourier(gnorm, a: float):
    """Fourier coefficient of the radius-a ball indicator on the cell, at |g| = gnorm.

    Normalized so the g = 0 value is exactly the volume fraction
    f = (4/3) pi a^3 / (2 pi)^3; for g != 0 the value is
    f * 3 (sin t - t cos t) / t^3 with t = |g| a, which tends to f as
    t -> 0.  `gnorm` is a scalar or an array of |g| values.
    """
    if not a > 0.0:
        raise DomainError(f"a: sphere radius must be > 0, got {a}")
    f = volume_fraction(a)
    t = np.asarray(gnorm, dtype=float) * a
    out = np.full(t.shape, f)
    small = t < 1e-4
    ts = t[small]
    out[small] = f * (1.0 - ts * ts / 10.0 + ts**4 / 280.0)
    big = ~small
    tb = t[big]
    out[big] = f * 3.0 * (np.sin(tb) - tb * np.cos(tb)) / tb**3
    if out.shape == ():
        return float(out)
    return out


@lru_cache(maxsize=1)
def _modes(g_max: int, group) -> tuple[np.ndarray, np.ndarray]:
    """(modes, orbit sizes): one mode g per orbit of `group` in the cube |g_i| <= g_max."""
    cube = integer_cube(g_max)
    first, number = orbits(cube, group, 2 * g_max + 1)
    return cube[first], np.bincount(number)


@lru_cache(maxsize=1)
def _coefficient_matrices(params: TransmissionParams, g_max: int, group):
    """(modes, read-only eta blocks, B, L) of the sector symmetric under `group` (R k = k).

    A block of f is sqrt(|O_r| |O_s|) / |G| sum_R psi(R) f(r - R s); B is gamma's
    with psi = 1, L its lower Cholesky factor.  As R k = k, (k+r).(k+R s) is
    sum_ij (k+r)_i R_ij (k+s)_j: A takes one eta block per distinct nonzero psi = R_ij
    (up to 9), kept with its pairs (i, j).  The trivial group: B = gamma, one eta.
    """
    modes, orbit = _modes(g_max, group)
    G = np.array(group)
    side = 4 * g_max + 1
    diffs = integer_cube(2 * g_max)
    dnorm = np.linalg.norm(diffs.astype(float), axis=1)
    chi = sphere_indicator_fourier(dnorm, params.a)
    mats = params.materials
    eta_p, eta_m = 1.0 / mats.rho_plus, 1.0 / mats.rho_minus
    diag = dnorm < 0.5
    eta = np.where(diag, eta_p, 0.0) + (eta_m - eta_p) * chi
    gam = np.where(diag, mats.gamma_plus, 0.0) + (mats.gamma_minus - mats.gamma_plus) * chi
    # index of r - R s in `diffs`: the mixed-radix code is linear in the mode
    radix = np.array([side * side, side, 1])
    origin = modes @ radix + 2 * g_max * radix.sum()
    idx = [origin[:, None] - modes @ R.T @ radix for R in G]
    weight = np.sqrt(np.outer(orbit, orbit)) / len(G)

    def block(f, psi):
        b = reduce(np.add, (c * f[i] for c, i in zip(psi, idx) if c)) * weight
        b.flags.writeable = False
        return b

    pairs: dict[tuple, list[tuple[int, int]]] = {}
    for i, j in zip(*np.nonzero(G.any(axis=0))):  # row-major, as the parts of A are summed
        pairs.setdefault(tuple(G[:, i, j]), []).append((i, j))
    blocks = tuple((*map(list, zip(*ij)), block(eta, psi)) for psi, ij in pairs.items())
    B = block(gam, np.ones(len(G)))
    L, info = lapack.dpotrf(B, lower=1)
    if info != 0:
        raise NumericalError(f"PWE mass matrix not positive definite (LAPACK info {info})")
    L.flags.writeable = False
    return modes, blocks, B, L


def _pencil(k, params: TransmissionParams, g_max: int, group):
    """(A, B) of the sector symmetric under `group` (R k = k for each R)."""
    modes, blocks, B, _ = _coefficient_matrices(params, g_max, group)
    kg = np.asarray(k, dtype=float)[None, :] + modes
    A = 0.0
    for rows, cols, eta in blocks:
        x = kg[:, rows]
        A = A + (x @ (x if rows == cols else kg[:, cols]).T) * eta  # x @ x.T: numpy's syrk
    return A, B


def assemble_pwe(k, params: TransmissionParams, g_max: int):
    """(A, B) at the Bloch vector k in the sector the solve keeps; B is shared and read-only."""
    return _pencil(k, params, g_max, stabiliser(k))


def free_spectrum(k, g_max: int) -> np.ndarray:
    """|k + g|^2 over the sector's modes: its omega^2 / c^2 without the inclusion."""
    return np.sum((np.asarray(k, dtype=float) + _modes(g_max, stabiliser(k))[0]) ** 2, axis=1)


def _lowest(A, L, count: int):
    """Lowest `count` (values, vectors) of A x = w L L^T x: xSYGVX past its Cholesky step.

    syevx gets sygvx's workspace, which sets the blocking of its
    tridiagonalisation: with its default one the values differed from
    eigh's by up to 6e-14 relative at g_max = 3 to 5.
    """
    C, info = lapack.dsygst(A, L, lower=1)
    if info == 0:
        lwork = int(lapack.dsygvx_lwork(len(A), uplo="L")[0])
        w, z, _, _, info = lapack.dsyevx(C, range="I", lower=1, iu=count, lwork=lwork,
                                         overwrite_a=1)
    if info == 0:
        z, info = lapack.dtrtrs(L, z, lower=1, trans=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"generalized eigensolve failed (LAPACK info {info})")
    return w[:count], z


def pwe_transmission_eigenvalues(k, params: TransmissionParams, g_max: int,
                                 count: int) -> EigResult:
    """Lowest `count` omega^2 values of the transmission cell problem, with their
    B-orthonormal eigenvectors in the sector's basis as `vectors`.

    Only the eigenvalues of the sector symmetric under every signed
    permutation R of the axes with R k = k are solved.
    """
    require_between("g_max", g_max, MIN_G_MAX, MAX_G_MAX)
    if count < 1:
        raise DomainError("count: must be >= 1")
    k = as_wavevector("k", k)
    if g_max * params.a < 1.0:
        msg = f"g_max*a = {g_max * params.a:.2f} < 1: truncation barely resolves the sphere"
        warnings.warn(msg, stacklevel=outside_stacklevel())
    A, B = assemble_pwe(k, params, g_max)
    if count > len(A):
        raise DomainError(f"count: {count} exceeds the {len(A)} modes solved")
    norm = max(np.linalg.norm(A), 1e-300)
    herm = np.linalg.norm(A - A.T) / norm
    if not herm <= 1e-12:
        raise NumericalError(f"PWE assembly not symmetric (defect {herm:.2e})")
    w, vecs = _lowest(A, _coefficient_matrices(params, g_max, stabiliser(k))[3], count)
    # relative to ||A||_F, which, unlike the eigenvalues, cannot be near 0
    res = np.linalg.norm(A @ vecs - (B @ vecs) * w[None, :], axis=0) / norm
    return EigResult(w, float(np.max(res)), vecs)
