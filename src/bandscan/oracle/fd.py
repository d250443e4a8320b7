"""Finite-difference Bloch eigensolver for the sound-soft sphere problem.

The Bloch wave u = Phi(x) e^{-i k.x} with cell-periodic Phi turns the
Helmholtz cell problem into the Hermitian eigenproblem

    (-lap + 2i k.grad + |k|^2) Phi = lambda Phi,     lambda = (omega/c)^2,

discretized on a uniform n^3 grid over [-pi, pi)^3 with the 7-point
Laplacian and centered first differences under periodic wraparound.  The
inclusion enters by node masking (|x - center| < a): masked rows/columns
are removed, which is the deflated form of replacing them by identity.
The staircase boundary carries an O(h) geometry error; tolerances of the
consumers are set accordingly.

Without a mask the discrete operator is diagonal in the plane-wave basis
with symbol

    sum_j [ 4 sin^2(g_j h/2)/h^2 - 2 k_j sin(g_j h)/h + k_j^2 ],

which is also what the FFT preconditioner inverts.  The restricted operator
is a principal submatrix of the unmasked one, so its eigenvalues lie in the
range of the symbol; the eigensolver fails a solve that returns a value
outside that interval.

The 7-point stencil is a CSR matrix, its pattern built once per ray and its
values per k (`assemble_sparse`); the block eigensolver applies it at every
grid size, as n >= 16 and a < pi/2 leave at least 3,845 free nodes, where it
is far cheaper than a dense eigensolve.  It starts from
plane waves of the lowest symbol modes or, along a ray of nearby k, from
the Ritz block of the previous solve (`v0`).

The module ships the free-lattice Green function (Bessel-integral form) and
the exact discrete capacitance of a masked node pattern; together they give
a staircase-free baseline for remainder studies against the asymptotic
formulas.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.special import ive

from ..errors import DomainError, ResolutionError
from ..lattice import integer_cube
from .eig import EigResult, hermitian_eigensolve

TWO_PI = 2.0 * math.pi


def axis_coords(n: int) -> np.ndarray:
    return -math.pi + (TWO_PI / n) * np.arange(n)


def sphere_mask(n: int, a: float, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Boolean (n,n,n) array, True at nodes with |x - center| < a.

    Distances use the minimum image, so off-center spheres stay whole.
    """
    x = axis_coords(n)

    def centered(c):
        t = x - c
        return (t + math.pi) % TWO_PI - math.pi

    dx = centered(center[0])[:, None, None]
    dy = centered(center[1])[None, :, None]
    dz = centered(center[2])[None, None, :]
    return dx * dx + dy * dy + dz * dz < a * a


def fourier_symbol(n: int, k) -> np.ndarray:
    """Exact eigenvalues of the unmasked discrete operator per FFT mode."""
    h = TWO_PI / n
    g = np.fft.fftfreq(n, d=1.0 / n)
    th = g * h
    axes = []
    for kj in k:
        axes.append(4.0 * np.sin(th / 2) ** 2 / h**2 - 2.0 * kj * np.sin(th) / h + kj**2)
    return axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]


@dataclass(frozen=True)
class FDGrid:
    """Uniform grid plus inclusion mask for one (n, a, center) geometry."""

    n: int
    a: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    inclusion_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 8:
            raise DomainError("grid must have n >= 8 points per axis")
        if not (0.0 <= self.a < math.pi / 2):
            raise DomainError("inclusion radius must satisfy 0 <= a < pi/2")
        object.__setattr__(
            self, "inclusion_mask", sphere_mask(self.n, self.a, self.center)
        )

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def cells_across(self) -> float:
        return 2.0 * self.a / self.h


def _resolve_workers() -> int:
    # BANDSCAN_THREADS caps FFT worker threads; -1 means all cores
    return int(os.environ.get("BANDSCAN_THREADS", "-1") or "-1")


class _GridOperator:
    """The restricted stencil operator as a CSR matrix, and its FFT preconditioner.

    `op @ V` applies the stencil through `matmat`, so the eigensolver takes
    the operator itself.
    """

    def __init__(self, grid: FDGrid, k):
        self.n = n = grid.n
        self.k = np.asarray(k, dtype=float)
        self.workers = _resolve_workers()
        self.matrix = assemble_sparse(n, self.k, grid.a, grid.center)
        self.idx = _stencil_pattern(n, grid.a, grid.center)[1]
        self.nfree = self.idx.size
        self.shape = (self.nfree, self.nfree)
        sym = fourier_symbol(n, self.k)
        # the masked operator is a principal submatrix of the periodic one,
        # so its eigenvalues lie within the range of the symbol
        self.spectrum = (float(sym.min()), float(sym.max()))
        # shift keeps the preconditioner positive definite near the low modes;
        # the floor keeps it from blowing up the g = 0 mode at small |k|, which
        # stalled the iteration (floors from 0.01 to 0.2 all converge).  An
        # exceptional k0 has |k0| >= 1/2, so on a `gap --verify` ray tau = |k|^2.
        tau = max(float(self.k @ self.k), 0.1)
        self.pre_sym = 1.0 / (sym + tau)

    def matmat(self, V):
        return self.matrix @ np.asarray(V, dtype=complex)

    def __matmul__(self, V):
        return self.matmat(V)

    def precmat(self, V):
        V = np.asarray(V, dtype=complex)
        # one grid per column, columns first, so each transform is contiguous
        G = np.zeros((V.shape[1], self.n**3), dtype=complex)
        G[:, self.idx] = V.T
        G = G.reshape(V.shape[1], self.n, self.n, self.n)
        G = scipy.fft.fftn(G, axes=(1, 2, 3), workers=self.workers, overwrite_x=True)
        G *= self.pre_sym[None]
        G = scipy.fft.ifftn(G, axes=(1, 2, 3), workers=self.workers, overwrite_x=True)
        return G.reshape(V.shape[1], -1)[:, self.idx].T

    def plane_wave_block(self, gs) -> np.ndarray:
        x = axis_coords(self.n)
        X = x[:, None, None]
        Y = x[None, :, None]
        Z = x[None, None, :]
        cols = []
        for g in gs:
            w = np.exp(1j * (g[0] * X + g[1] * Y + g[2] * Z))
            cols.append(w.ravel()[self.idx])
        return np.stack(cols, axis=1)


def _block_modes(n: int, k, count: int, max_extra: int = 8):
    """Plane-wave start modes; block boundary avoids degenerate shells."""
    sym = fourier_symbol(n, k)
    g = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    flat = sym.ravel()
    order = np.argsort(flat)
    vals = flat[order]
    size = count
    for b in range(count, min(count + max_extra, len(vals) - 1) + 1):
        if b >= len(vals) or vals[b] - vals[b - 1] > 1e-8 * (1.0 + abs(vals[b])):
            size = b
            break
    else:
        size = min(count + max_extra, len(vals))
    i, j, l = np.unravel_index(order[:size], (n, n, n))
    return [(int(g[p]), int(g[q]), int(g[r])) for p, q, r in zip(i, j, l)]


@lru_cache(maxsize=1)
def _stencil_pattern(n: int, a: float, center: tuple):
    """(grid, free nodes, CSR indices, indptr, stencil slot per entry), read-only.

    Independent of k, so built once per geometry.  Slot 0 is the centre, slots
    1 + 2j and 2 + 2j the +1 and -1 neighbours along axis j (np.roll by -1, +1).
    """
    grid = FDGrid(n=n, a=a, center=center)
    free = np.flatnonzero(~grid.inclusion_mask.ravel())
    pos = np.full(n**3, free.size)  # masked nodes sort after every free one
    pos[free] = np.arange(free.size)
    node = np.arange(n**3).reshape(n, n, n)
    cols = [free] + [np.roll(node, step, axis=axis).ravel()[free]
                     for axis in range(3) for step in (-1, 1)]
    C = pos[np.stack(cols, axis=1)]
    slot = np.argsort(C, axis=1, kind="stable")
    C = np.take_along_axis(C, slot, axis=1)
    inside = C < free.size
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1)))).astype(np.int32)
    out = grid, free, C[inside].astype(np.int32), indptr, slot[inside]
    for arr in out[1:]:
        arr.setflags(write=False)
    return out


def assemble_sparse(n: int, k, a: float = 0.0, center=(0.0, 0.0, 0.0)) -> sp.csr_matrix:
    """Sparse matrix of the grid operator, restricted to the nodes outside the sphere.

    Row r holds the 7-point stencil of free node r in sorted columns, without
    couplings to masked nodes; each k only gathers its 7 values into the
    cached pattern.  This is the operator every FD solve applies.
    """
    k = np.asarray(k, dtype=float)
    h = TWO_PI / n
    _, free, indices, indptr, slot = _stencil_pattern(n, a, tuple(center))
    vals = [6.0 / h**2 + float(k @ k)]
    for axis in range(3):
        vals += [-1.0 / h**2 + sign * 1j * k[axis] / h for sign in (1.0, -1.0)]
    data = np.array(vals, dtype=complex)[slot]
    return sp.csr_matrix((data, indices, indptr), shape=(free.size, free.size))


def fd_dirichlet_eigenvalues(
    k,
    a: float,
    n: int,
    count: int,
    *,
    center=(0.0, 0.0, 0.0),
    v0=None,
) -> EigResult:
    """Lowest `count` values of lambda = (omega/c)^2 for the masked problem.

    Requires n >= 16 and at least two grid cells across the inclusion
    diameter (a hard floor below which the staircase sphere degenerates);
    below four cells a resolution warning is issued instead.

    The block eigensolver starts from plane waves of the lowest symbol modes,
    or from `v0`, the `vectors` block of a solve at a nearby k on the same
    grid and mask (plane waves fill any missing columns).  The result
    carries the Ritz block in `vectors` for that purpose.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise DomainError("wave vector must have 3 components")
    if n < 16:
        raise DomainError("fd_dirichlet_eigenvalues requires n >= 16")
    if count < 1:
        raise DomainError("count must be >= 1")
    grid = _stencil_pattern(n, a, tuple(center))[0]
    if a > 0.0:
        if grid.cells_across < 2.0:
            raise ResolutionError(
                f"only {grid.cells_across:.2f} grid cells across the inclusion "
                f"diameter at n={n}; need at least 2"
            )
        if grid.cells_across < 4.0:
            warnings.warn(
                f"{grid.cells_across:.2f} grid cells across the inclusion "
                "diameter; staircase error is large below 4",
                stacklevel=2,
            )

    op = _GridOperator(grid, k)
    modes = _block_modes(n, k, count)
    if v0 is None:
        X = op.plane_wave_block(modes)
    else:
        X = np.asarray(v0, dtype=complex)
        if X.ndim != 2 or X.shape[0] != op.nfree:
            raise DomainError(f"v0 must have {op.nfree} rows, one per free node")
        if X.shape[1] < len(modes):
            X = np.hstack([X, op.plane_wave_block(modes[X.shape[1]:])])
        else:
            X = X[:, : len(modes)]
    vals, res, vecs = hermitian_eigensolve(
        op, count, precond=op.precmat, v0=X, spectrum=op.spectrum
    )
    return EigResult(vals, res, vecs)


# ---------------------------------------------------------------------------
# Free-lattice Green function and the exact discrete inclusion capacitance.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def lattice_green(m1: int, m2: int, m3: int) -> float:
    """Green function g(m) of the unit-spacing 7-point Laplacian on Z^3.

    g(m) = int_0^inf e^{-6t} I_m1(2t) I_m2(2t) I_m3(2t) dt, evaluated with
    exponentially scaled Bessel functions; g(0) is the Watson constant
    0.2527310098..., and g(m) ~ 1/(4 pi |m|) at large |m|.
    """
    from scipy.integrate import quad  # lazily: costs about 0.2 s of import time

    m1, m2, m3 = sorted((abs(int(m1)), abs(int(m2)), abs(int(m3))))

    def integrand(t):
        return ive(m1, 2.0 * t) * ive(m2, 2.0 * t) * ive(m3, 2.0 * t)

    v1, _ = quad(integrand, 0.0, 50.0, limit=300, epsabs=1e-13, epsrel=1e-12)
    v2, _ = quad(integrand, 50.0, np.inf, limit=300, epsabs=1e-13, epsrel=1e-12)
    return v1 + v2


def mask_pattern(radius_cells: float) -> np.ndarray:
    """Integer nodes with |m| < radius_cells (the staircase ball pattern)."""
    if radius_cells <= 0:
        return np.zeros((0, 3), dtype=int)
    cube = integer_cube(math.ceil(radius_cells))
    return cube[np.sum(cube * cube, axis=1) < radius_cells**2]


def discrete_inclusion_capacitance(pattern: np.ndarray, h: float) -> float:
    """Exact Gaussian capacitance of a masked node pattern at spacing h.

    Solves the discrete equilibrium problem sum_j g(m_i - m_j) c_j = 1 on
    the pattern and returns h * sum(c) / (4 pi); a grid sphere of radius a
    centered on a node has pattern mask_pattern(a / h).  This is the
    staircase-consistent stand-in for the shape capacitance q*a.
    """
    pattern = np.asarray(pattern, dtype=int)
    if pattern.ndim != 2 or pattern.shape[1] != 3 or len(pattern) == 0:
        raise DomainError("pattern must be a nonempty (n, 3) integer array")
    npts = len(pattern)
    # g depends on the sorted |offset| only: one quadrature per distinct triple
    b = int(np.ptp(pattern, axis=0).max()) + 1
    codes = np.sort(np.abs(pattern[:, None, :] - pattern[None, :, :]), axis=2) @ [b * b, b, 1]
    keys, inverse = np.unique(codes, return_inverse=True)
    g = [lattice_green(c // (b * b), c // b % b, c % b) for c in keys.tolist()]
    G = np.asarray(g)[inverse].reshape(npts, npts)
    c = np.linalg.solve(G, np.ones(npts))
    return h * float(c.sum()) / (4.0 * math.pi)
