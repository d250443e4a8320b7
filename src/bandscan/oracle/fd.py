"""Finite-difference Bloch eigensolver for the sound-soft sphere problem.

The Bloch wave u = Phi(x) e^{-i k.x} with cell-periodic Phi turns the
Helmholtz cell problem into the Hermitian eigenproblem

    (-lap + 2i k.grad + |k|^2) Phi = lambda Phi,     lambda = (omega/c)^2,

discretized on a uniform n^3 grid over [-pi, pi)^3 with the 7-point
Laplacian and centered first differences under periodic wraparound.  The
inclusion enters by node masking (|x| < a): masked rows/columns are removed,
which is the deflated form of replacing them by identity.  The staircase
boundary carries an O(h) geometry error; tolerances of the consumers are set
accordingly.

Without a mask the discrete operator is diagonal in the plane-wave basis
with symbol

    sum_j [ 4 sin^2(g_j h/2)/h^2 - 2 k_j sin(g_j h)/h + k_j^2 ],

which is also what the FFT preconditioner inverts.  The restricted operator
is a principal submatrix of the unmasked one, so its eigenvalues lie in the
range of the symbol; the eigensolver fails a solve that returns a value
outside that interval.

The centred sphere keeps two symmetries, and every solve uses both
(`_Sector`).  Each signed permutation R of the axes with R k = k commutes
with H(k), and a solve keeps only the sector symmetric under the group G of
all of them (`lattice.stabiliser`; an odd n keeps the whole spectrum, see
`_group`): at an order-two k0 both plane waves of the pair lie in it, and
the bands a `gap --verify` ray must not pick mostly do not.  The inversion
x -> -x commutes with G, and composed with complex conjugation it leaves
H(k) invariant, so in a basis of G-orbit sums paired under the inversion
H(k) is real symmetric (the symmetry MPB runs in real arithmetic with:
Johnson & Joannopoulos, Opt. Express 8, 173, 2001).  The real sector matrix
is combined per k from arrays cached per (n, a, G); the preconditioner
applies the symbol's inverse through a DCT-I along the axes of G's mirrors
x_i -> -x_i and an FFT along the others.  The block eigensolver
(`hermitian_eigensolve`) starts from the sector's plane waves of the lowest
symbol modes or, along a ray of nearby k, from the Ritz block of the
previous solve (`v0`).

The module ships the free-lattice Green function (Bessel-integral form) and
the exact discrete capacitance of a masked node pattern; together they give
a staircase-free baseline for remainder studies against the asymptotic
formulas.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.special import ive

from ..dirichlet import MAX_N, MIN_N, require_scale
from ..errors import DomainError, ResolutionError
from ..lattice import as_wavevector, orbits, require_between, stabiliser
from .eig import EigResult, hermitian_eigensolve, outside_stacklevel

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)


def sphere_mask(n: int, a: float) -> np.ndarray:
    """Boolean (n,n,n) array, True at nodes with |x| < a.  |x|^2 is (pi/n)^2 times the
    integer sum of the (2 j - n)^2, so every signed permutation of the axes keeps the mask."""
    d2 = (2 * np.arange(n) - n) ** 2
    return (d2[:, None, None] + d2[None, :, None] + d2[None, None, :]) * (math.pi / n) ** 2 < a * a


def _group(n: int, k) -> tuple:
    """The group of the sector solved at k: `stabiliser(k)`, or its identity alone for an
    odd n, where the DCT-I of the preconditioner is not the DFT of even data."""
    return stabiliser(k) if n % 2 == 0 else stabiliser(k)[:1]


def _mirrored(group) -> tuple[int, ...]:
    """The axes i whose mirror x_i -> -x_i lies in `group`: those with k_i = 0."""
    return tuple(sorted(int(np.argmin(np.diag(R))) for R in np.array(group)
                        if np.trace(np.abs(R)) == 3 and np.trace(R) == 1))


@lru_cache(maxsize=1)
def _frequencies(n: int, group) -> np.ndarray:
    """Flat FFT-grid codes of one frequency per orbit of `group`, in the sector's order."""
    return orbits(np.stack(np.unravel_index(np.arange(n**3), (n, n, n)), axis=1), group, n)[0]


def fourier_symbol(n: int, k) -> np.ndarray:
    """Exact eigenvalues of the unmasked operator in the sector solved at k, one per orbit."""
    return _symbol(n, k).ravel()[_frequencies(n, _group(n, k))]


def _symbol(n: int, k) -> np.ndarray:
    """The symbol per FFT mode, an (n, n, n) array in FFT index order."""
    h = TWO_PI / n
    th = np.fft.fftfreq(n, d=1.0 / n) * h
    s = [4.0 * np.sin(th / 2) ** 2 / h**2 - 2.0 * ki * np.sin(th) / h + ki**2 for ki in k]
    return s[0][:, None, None] + s[1][None, :, None] + s[2][None, None, :]


class _Sector:
    """Real orthonormal basis of the free nodes' sector symmetric under the group G.

    The free nodes fall into orbits O of G (`lattice.orbits` of the indices j
    mod n, on which R acts as on the offsets j - n/2); the sector is spanned by
    the orbit sums s_O (1/sqrt|O| on each node of O).  The inversion P composed
    with conjugation leaves H(k) invariant, and it maps s_O to s_PO, so the
    basis u_O = (s_O + s_PO)/sqrt2, u_PO = i(s_O - s_PO)/sqrt2 for O < PO and
    u_O = s_O for O = PO turns H(k) into a real symmetric matrix.

    H(k) = L + sum_j k_j D_j + |k|^2 I, so U^H H(k) U is combined per k on one
    cached CSR pattern (`matrix`): `P` has one row per position of the pattern
    and one column per part, U^H L U, I, then each U^H D_j U, so the pattern's
    values are P @ (1, |k|^2, k_j), summed in that column order.  On the grid
    `shape` reduced by G's mirrors (index <= n//2 on each axis of `axes`, the
    others are `fft_axes`),
    `scatter` maps sector coefficients to the values of the grid function they
    stand for (U restricted there), and `gather` maps the values of a
    mirror-even, P-invariant grid function back to its sector coefficients
    (U^H, each node counting for its mirror orbit); take the real part.
    """

    def __init__(self, n: int, a: float, group):
        self.n, self.axes = n, _mirrored(group)
        self.fft_axes = tuple(i for i in range(3) if i not in self.axes)
        free = np.flatnonzero(~sphere_mask(n, a).ravel())
        node = np.stack(np.unravel_index(free, (n, n, n)))
        self.shape = tuple(n // 2 + 1 if i in self.axes else n for i in range(3))
        o = orbits(node.T, group, n)[1]
        m = self.size = int(o.max()) + 1
        po = o[np.searchsorted(free, np.ravel_multi_index(-node % n, (n, n, n)))]
        size = np.bincount(o, minlength=m)
        # the free nodes of the reduced grid, and the size of each one's mirror orbit
        mirrored = node[list(self.axes)]
        first = np.flatnonzero(np.all(mirrored <= n // 2, axis=0))
        weight = 2 ** np.count_nonzero(mirrored[:, first] % (n // 2), axis=0)
        cell = np.ravel_multi_index(node[:, first], self.shape)  # before U, for the peak

        # U = Re U + i Im U.  A free node of orbit O has one entry in each: in
        # column min(O, PO) of Re U (the sum or the fixed orbit's column), and,
        # unless O = PO, in column max(O, PO) of Im U, with sign + for O < PO
        pair = o != po
        re_u = sp.csr_matrix((np.where(pair, SQRT_HALF, 1.0) / np.sqrt(size[o]),
                              np.minimum(o, po), np.arange(free.size + 1)), shape=(free.size, m))
        im_u = sp.csr_matrix(((np.where(o < po, SQRT_HALF, -SQRT_HALF) / np.sqrt(size[o]))[pair],
                              np.maximum(o, po)[pair], np.concatenate(([0], np.cumsum(pair)))),
                             shape=(free.size, m))
        u = (re_u[first] + 1j * im_u[first]).tocoo()
        at = cell[u.row]
        self.scatter = sp.csr_matrix((u.data, (at, u.col)), shape=(math.prod(self.shape), m))
        self.gather = sp.csr_matrix((u.data.conj() * weight[u.row], (u.col, at)),
                                    shape=(m, math.prod(self.shape)))
        # the products below set the peak memory at n = 96: free what they do not use
        del node, mirrored, o, po, size, pair, u, at, first, weight, cell
        re_ut, im_ut = re_u.T.tocsr(), im_u.T.tocsr()
        h = TWO_PI / n

        # N[j, step] picks each free node's neighbour at index +step along axis
        # j (np.roll by -step) where that neighbour is free: a masked node's
        # position is -1.  Entries are 1, so int8 keeps the build's peak low
        pos = np.full(n**3, -1)
        pos[free] = np.arange(free.size)
        grid = np.arange(n**3).reshape(n, n, n)
        N = {}
        for j in range(3):
            for step in (1, -1):
                col = pos[np.roll(grid, -step, axis=j).ravel()[free]]
                row = np.flatnonzero(col >= 0)
                N[j, step] = sp.csr_matrix((np.ones(row.size, dtype=np.int8), (row, col[row])),
                                           shape=(free.size,) * 2)
        del pos, grid
        # Re(U^H L U) for the real Laplacian L
        lap = sp.identity(free.size, format="csr") * (6.0 / h**2) - sum(N.values()) / h**2
        parts = [re_ut @ (lap @ re_u) + im_ut @ (lap @ im_u), sp.identity(m, format="csr")]
        # Re(U^H i D' U) = -(X + X^T), X = Re(U)^T D' Im(U), for D_j = i D'_j with
        # D'_j the real antisymmetric centred difference.  D_j maps the even
        # sector of mirror j to its odd one: nothing for a mirrored axis
        for j in self.fft_axes:
            X = re_ut @ ((N[j, 1] - N[j, -1]) / h @ im_u)
            parts.append(-(X + X.T))
        del lap, N
        # one pattern for all: the sum of their patterns, each entry coded
        # with bit b of part b, so part b sits at the entries with that bit
        # set, in its own row-major order
        for M in parts:
            M.sort_indices()
        pattern = sum(sp.csr_matrix((np.full(M.nnz, 1 << b, dtype=np.int8), M.indices, M.indptr),
                                    shape=(m, m)) for b, M in enumerate(parts))
        pattern.sort_indices()
        code = pattern.data
        data = np.concatenate([M.data for M in parts])
        del parts, M  # P's values are held once at the peak of the build
        rows = [np.flatnonzero(code & (1 << b)).astype(np.int32)
                for b in range(len(self.fft_axes) + 2)]
        self.P = sp.csc_matrix((data, np.concatenate(rows), np.cumsum([0, *map(len, rows)])),
                               shape=(code.size, len(rows)))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        for arr in (self.indices, self.indptr, self.P.data, self.P.indices, self.P.indptr):
            arr.setflags(write=False)
        for M in (self.scatter, self.gather):
            for arr in (M.data, M.indices, M.indptr):
                arr.setflags(write=False)

    def matrix(self, k) -> sp.csr_matrix:
        """U^H H(k) U, real symmetric; every R of the sector's group must fix k."""
        coef = [1.0, float(k @ k)] + [k[j] for j in self.fft_axes]
        return sp.csr_matrix((self.P @ np.array(coef), self.indices, self.indptr),
                             shape=(self.size, self.size))


@lru_cache(maxsize=1)
def _sector(n: int, a: float, group) -> _Sector:
    return _Sector(n, a, group)


class _GridOperator:
    """H(k) in the real basis of a `_Sector`, and its FFT preconditioner.

    `op @ V` applies the real CSR matrix through `matmat`, so the eigensolver
    takes the operator itself.  `sym` is `_symbol(sector.n, k)`; the sector
    data is even along a mirrored axis, as the symbol is there (k_i = 0), so
    the grid reduced by the mirrors keeps one mode g_i >= 0 per mirror orbit.
    """

    def __init__(self, sector: _Sector, k, sym: np.ndarray):
        self.sector = sector
        self.k = np.asarray(k, dtype=float)
        self.matrix = sector.matrix(self.k)
        self.shape = self.matrix.shape
        sym = sym[tuple(slice(m) for m in sector.shape)]
        # the masked sector operator is a principal submatrix of the periodic
        # one in the orbit basis, so its eigenvalues lie within the symbol's range
        self.spectrum = (float(sym.min()), float(sym.max()))
        # shift keeps the preconditioner positive definite near the low modes;
        # the floor keeps it from blowing up the g = 0 mode at small |k|, which
        # stalled the iteration (floors from 0.01 to 0.2 all converge).  An
        # exceptional k0 has |k0| >= 1/2, so on a `gap --verify` ray tau = |k|^2.
        tau = max(float(self.k @ self.k), 0.1)
        self.pre_sym = 1.0 / (sym + tau)

    def matmat(self, V):
        return self.matrix @ V

    def __matmul__(self, V):
        return self.matmat(V)

    def precmat(self, V):
        # the symbol's inverse on the periodic grid, restricted to the sector.
        # Sector data is even along a mirrored axis, where its DFT is a DCT-I
        # of the reduced grid, and P-invariant, so its DFT along the other
        # axes is real.  An empty axis list leaves the data as it is
        s, p = self.sector, V.shape[1]
        G = scipy.fft.fftn((s.scatter @ V).reshape(*s.shape, p), axes=s.fft_axes, overwrite_x=True)
        G = scipy.fft.dctn(np.ascontiguousarray(G.real), type=1, axes=s.axes, overwrite_x=True)
        G *= self.pre_sym[..., None]
        G = scipy.fft.idctn(G, type=1, axes=s.axes, overwrite_x=True)
        G = scipy.fft.ifftn(G, axes=s.fft_axes, overwrite_x=True)
        return (s.gather @ G.reshape(-1, p)).real

    def plane_wave_block(self, gs) -> np.ndarray:
        """Sector coefficients of the even plane waves: cos(g_i x_i) on mirrored axes."""
        s = self.sector
        x = (TWO_PI / s.n) * (np.arange(s.n) - s.n / 2)  # the node coordinates
        cols = []
        for g in gs:
            f = [np.cos(g[i] * x[: s.shape[i]]) if i in s.axes else np.exp(1j * g[i] * x)
                 for i in range(3)]
            cols.append((f[0][:, None, None] * f[1][None, :, None] * f[2][None, None, :]).ravel())
        return (s.gather @ np.stack(cols, axis=1)).real


#: Start modes the block may take past `count`, so that it ends between two symbol shells.
EXTRA_MODES = 8


def _block_modes(sym: np.ndarray, count: int, group):
    """Sector start modes of the lowest values of `sym` (`_symbol`), one per orbit of
    `group`; the block ends at the first gap between values within EXTRA_MODES past
    `count`, or EXTRA_MODES past it."""
    n = sym.shape[0]
    codes = _frequencies(n, group)
    g = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    flat = sym.ravel()[codes]
    order = np.argsort(flat)
    vals = flat[order]
    last = min(count + EXTRA_MODES, len(vals))
    size = next((b for b in range(count, last)
                 if vals[b] - vals[b - 1] > 1e-8 * (1.0 + abs(vals[b]))), last)
    i, j, l = np.unravel_index(codes[order[:size]], (n, n, n))
    return [(int(g[p]), int(g[q]), int(g[r])) for p, q, r in zip(i, j, l)]


def fd_dirichlet_eigenvalues(k, a: float, n: int, count: int, *, v0=None) -> EigResult:
    """Lowest `count` values of lambda = (omega/c)^2 for the masked problem.

    Only the eigenvalues of the sector symmetric under every signed
    permutation R of the axes with R k = k are solved (`_group`);
    `fourier_symbol(n, k)` is that sector's spectrum without the inclusion.

    Requires `dirichlet.MIN_N` <= n <= `dirichlet.MAX_N` and at least two
    grid cells across the inclusion diameter (a hard floor below which the
    staircase sphere degenerates); below four cells a resolution warning is
    issued instead.

    The block eigensolver starts from the sector's plane waves of the lowest
    symbol modes, or from `v0`, the real `vectors` block of a solve at a
    nearby k on the same grid, mask and sector (plane waves fill any missing
    columns).  The result carries that Ritz block in `vectors`.  A `count`
    past the sector's size is refused before any block is built.
    """
    k = as_wavevector("k", k)
    require_between("n", n, MIN_N, MAX_N)
    if count < 1:
        raise DomainError("count: must be >= 1")
    require_scale(a)
    cells = a * n / math.pi  # across the diameter 2a at spacing 2 pi / n
    if a > 0.0:
        if cells < 2.0:
            raise ResolutionError(
                f"only {cells:.2f} grid cells across the inclusion "
                f"diameter at n={n}; need at least 2"
            )
        if cells < 4.0:
            warnings.warn(
                f"{cells:.2f} grid cells across the inclusion "
                "diameter; staircase error is large below 4",
                stacklevel=outside_stacklevel(),
            )

    return _solve(k, a, n, count, v0, _group(n, k))


def _solve(k, a: float, n: int, count: int, v0, group) -> EigResult:
    """The solve of `fd_dirichlet_eigenvalues` in the sector symmetric under `group`."""
    sector = _sector(n, a, group)
    if count > sector.size:
        raise DomainError(f"count: {count} exceeds the {sector.size} unknowns of the sector")
    X = np.empty((sector.size, 0)) if v0 is None else np.asarray(v0)
    if X.ndim != 2 or X.shape[0] != sector.size or np.iscomplexobj(X):
        raise DomainError(f"v0: must be real with {sector.size} rows, one per basis vector")
    sym = _symbol(n, k)
    op = _GridOperator(sector, k, sym)
    modes = _block_modes(sym, count, group)
    if X.shape[1] < len(modes):
        X = np.hstack([X, op.plane_wave_block(modes[X.shape[1]:])])
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


def mask_pattern(n: int, a: float) -> np.ndarray:
    """The nodes that `sphere_mask(n, a)` masks (the staircase ball pattern), as integer
    offsets from node n // 2 in lexicographic order: the oracle's rule, ties included."""
    return np.argwhere(sphere_mask(n, a)) - n // 2


def discrete_inclusion_capacitance(pattern: np.ndarray, h: float) -> float:
    """Exact Gaussian capacitance of a masked node pattern at spacing h.

    Solves the discrete equilibrium problem sum_j g(m_i - m_j) c_j = 1 on
    the pattern and returns h * sum(c) / (4 pi); the oracle's grid sphere of
    radius a on the n^3 grid has pattern mask_pattern(n, a).  This is the
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
