"""Hermitian eigensolver front end and the ASCII matrix exchange format.

Dense problems go through LAPACK; large sparse/operator problems go through
preconditioned block LOBPCG with a deterministic (or warm) starting block.
Returned eigenpairs are residual-checked: ||A x - lambda (M) x|| <= tol *
scale with scale = max(|lambda|) over the block, and a NumericalError
carries the residual report when the iteration cap is hit.

The iteration keeps its search basis orthonormal: X^H Y products are single
zgemm calls, blocks are orthonormalized by Cholesky-QR run twice (Householder
QR when the Gram matrix is not safely positive definite), and the
Rayleigh-Ritz step drops directions whose Gram eigenvalues are negligible
and any Ritz value outside a known spectral interval, so an ill-conditioned
basis cannot produce a ghost eigenvalue.

Triplet export format (ASCII, documented for debugging):

    # bandscan hermitian triplets v1
    <nrows> <ncols> <nnz>
    <i> <j> <re> <im>        (0-based, one line per stored entry)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import zgemm
from scipy.sparse.linalg import LinearOperator

from ..errors import DomainError, NumericalError

#: Contract caps: beyond these the caller is out of the supported envelope.
MAX_DENSE = 12_000
MAX_SPARSE = 120_000


@dataclass(frozen=True)
class EigResult:
    """Sorted lowest eigenvalues of one discretized Bloch problem.

    `vectors` is the eigenvector (Ritz) block when the solver returns one;
    it warm-starts the solve at a nearby wave vector.
    """

    eigenvalues: np.ndarray = field(repr=False)
    k: tuple[float, float, float]
    resolution: str
    residual_norm: float
    vectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise NumericalError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)


def _as_dense(A):
    if sp.issparse(A):
        return A.toarray()
    return np.asarray(A)


def _residuals(A, M, vals, vecs):
    AV = A @ vecs
    MV = vecs if M is None else M @ vecs
    R = AV - MV * vals[None, :]
    return np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(MV, axis=0), 1e-300)


#: Gram eigenvalues below this fraction of the largest mark directions of a
#: search basis that are numerically dependent; they are dropped.
GRAM_DROP = 1e-10


def _inner(X, Y):
    """X^H Y for (N, p) and (N, q) blocks, in one zgemm that conjugates X itself."""
    X = np.ascontiguousarray(X, dtype=complex)
    Y = np.ascontiguousarray(Y, dtype=complex)
    return zgemm(1.0, Y.T, X.T, trans_b=2).T


def _hermitian_part(G):
    return 0.5 * (G + G.conj().T)


def _orthonormalize(V):
    """Orthonormal basis of span(V), dropping numerically dependent columns.

    Cholesky-QR, run twice, with the Gram matrix scaled to unit diagonal;
    Householder QR takes over when that matrix is not safely positive
    definite (condition number of V above about 1e6, where Cholesky-QR
    loses orthogonality).
    """
    V = V[:, np.linalg.norm(V, axis=0) > 0]
    if V.shape[1] == 0:
        return V
    for _ in range(2):
        G = _inner(V, V)
        d = 1.0 / np.sqrt(np.diag(G).real)
        try:
            R = scipy.linalg.cholesky(G * np.outer(d, d), lower=False, check_finite=False)
        except np.linalg.LinAlgError:
            break
        r = np.abs(np.diag(R))
        if r.min() <= 1e-6 * r.max():
            break
        V = V @ (d[:, None] * scipy.linalg.solve_triangular(
            R, np.eye(R.shape[0]), lower=False, check_finite=False
        ))
    else:
        return V
    Q, R = np.linalg.qr(V / np.linalg.norm(V, axis=0))
    r = np.abs(np.diag(R))
    return np.ascontiguousarray(Q[:, r > GRAM_DROP * r.max()])


def _ritz_from_gram(Mg, G, spectrum=None):
    """Ritz pairs from the Gram matrix Mg = S^H S and G = S^H A S, ascending.

    Returns (theta, C) with the Ritz vectors S C orthonormal.  Directions
    whose Gram eigenvalue is below GRAM_DROP times the largest are dropped
    before the reduced problem is solved, so an ill-conditioned S cannot
    produce a ghost Ritz value; values outside `spectrum`, an interval known
    to hold every eigenvalue of A, are discarded as well.
    """
    # unit-diagonal scaling first, so the cut does not depend on column norms
    d = 1.0 / np.sqrt(np.maximum(np.diag(Mg).real, 1e-300))
    w, U = scipy.linalg.eigh(_hermitian_part(Mg * np.outer(d, d)), check_finite=False)
    keep = w > GRAM_DROP * max(w[-1], 1e-300)
    if not np.any(keep):
        raise NumericalError("eigensolver basis collapsed")
    B = d[:, None] * U[:, keep] / np.sqrt(w[keep])[None, :]
    theta, C = scipy.linalg.eigh(_hermitian_part(B.conj().T @ G @ B), check_finite=False)
    C = B @ C
    if spectrum is not None:
        lo, hi = spectrum
        slack = 1e-8 * max(abs(lo), abs(hi), 1.0)
        ok = (theta >= lo - slack) & (theta <= hi + slack)
        theta, C = theta[ok], C[:, ok]
    return theta, C


def _rayleigh_ritz(S, AS, spectrum=None):
    """Ritz pairs of span(S) from the block S and its image AS (see _ritz_from_gram)."""
    return _ritz_from_gram(_inner(S, S), _inner(S, AS), spectrum)


def _residuals_rel(X, AX, theta):
    """Residual block, and its column norms relative to the spectral scale of the block."""
    R = AX - X * theta[None, :]
    return R, np.linalg.norm(R, axis=0) / max(float(np.max(np.abs(theta))), 1e-8)


def _block_preconditioned_eigensolve(A_mul, T_mul, X0, count, tol, maxiter, spectrum=None):
    """Locally optimal block preconditioned solver for the lowest eigenpairs.

    LOBPCG in the orthonormal-basis form of Duersch, Shao, Yang and Gu (SISC
    40(5), 2018).  X holds the current Ritz vectors and P, orthonormal and
    orthogonal to X, the conjugate directions; the preconditioned residuals
    W of the unconverged columns (soft locking) are orthogonalized against
    [X, P] and made orthonormal.  Of the Gram matrices of S = [X, P, W] only
    the columns of W are computed (S^H W and S^H A W): the rest is known
    from the previous step (X^H A X = diag(theta), X^H A P = 0, the identity
    for the Gram of [X, P]).  P is chosen in the small space, among the
    Ritz vectors not kept, as the span of the part of the new X outside the
    old one, so it needs no tall QR.  The implicitly updated A X is
    refreshed once before convergence is accepted.
    Returns (theta, X, relative residuals, iterations).
    """
    X = _orthonormalize(np.asarray(X0, dtype=complex))
    if X.shape[1] < count:
        raise NumericalError("starting block is rank deficient")
    AX = A_mul(X)
    theta, C = _rayleigh_ritz(X, AX, spectrum)
    # XP = [X, P] and AXP = [AX, AP] are each one contiguous block
    XP, AXP = X @ C, AX @ C
    mx = XP.shape[1]
    PAP = None
    rel = None
    for it in range(maxiter):
        X, AX = XP[:, :mx], AXP[:, :mx]
        R, rel = _residuals_rel(X, AX, theta)
        if np.all(rel[:count] <= tol):
            X = np.ascontiguousarray(X)
            AX = A_mul(X)
            theta, C = _rayleigh_ritz(X, AX, spectrum)
            X, AX = X @ C, AX @ C
            R, rel = _residuals_rel(X, AX, theta)
            if np.all(rel[:count] <= tol):
                return theta, X, rel, it
            XP, AXP, PAP, mx = X, AX, None, X.shape[1]
        W = T_mul(R[:, rel > tol])
        norms = np.linalg.norm(W, axis=0)
        # one projection pass: the Gram matrix below is exact, so what it
        # leaves of [X, P] in W is accounted for in the Rayleigh-Ritz step
        W = W - XP @ _inner(XP, W)
        W = W[:, np.linalg.norm(W, axis=0) > 1e-10 * norms]
        if W.shape[1] == 0:
            return theta, np.ascontiguousarray(X), rel, it
        W = _orthonormalize(W)
        AW = A_mul(W)
        S = np.concatenate([XP, W], axis=1)
        AS = np.concatenate([AXP, AW], axis=1)
        nb, nw = XP.shape[1], W.shape[1]
        Mg = np.eye(nb + nw, dtype=complex)
        G = np.zeros_like(Mg)
        G[:mx, :mx] = np.diag(theta)
        if PAP is not None:
            G[mx:nb, mx:nb] = PAP
        Mg[:, nb:], G[:, nb:] = _inner(S, W), _inner(S, AW)
        Mg[nb:, :nb], G[nb:, :nb] = Mg[:nb, nb:].conj().T, G[:nb, nb:].conj().T
        theta_all, C = _ritz_from_gram(Mg, G, spectrum)
        m = min(mx, theta_all.size)
        if m < count:
            raise NumericalError("eigensolver basis collapsed")
        theta, Cx, Crest = theta_all[:m], C[:, :m], C[:, m:]
        # the part of the new X outside the old one, in the coordinates of
        # the remaining (orthonormal) Ritz vectors, spans the new P
        U, sv, _ = np.linalg.svd(Crest.conj().T @ (Mg[:, :mx] @ Cx[:mx]), full_matrices=False)
        Q = U[:, sv > 1e-12]
        Z = np.concatenate([Cx, Crest @ Q], axis=1)
        XP, AXP = S @ Z, AS @ Z
        PAP = (Q.conj().T * theta_all[m:]) @ Q if Q.shape[1] else None
        mx = m
    X = np.ascontiguousarray(XP[:, :mx])
    return theta, X, rel, maxiter


def hermitian_eigensolve(
    A,
    count: int,
    M=None,
    *,
    precond=None,
    v0=None,
    spectrum=None,
    tol: float = 1e-8,
    maxiter: int = 400,
    seed: int = 0,
    allow_large: bool = False,
    return_residual: bool = False,
    return_vectors: bool = False,
):
    """Lowest `count` eigenvalues of a Hermitian (pencil) problem.

    A and optional M may be ndarrays, sparse matrices, or LinearOperators.
    Dense inputs (or anything of dimension <= 4000) are solved directly;
    otherwise LOBPCG runs with the supplied preconditioner and starting
    block.  v0 defaults to a seeded random block, so fixed inputs and seed
    give bit-identical output; a warm start passes the Ritz block of a
    nearby problem.  `spectrum` is an interval known to contain every
    eigenvalue of A: Ritz values outside it are rejected.  allow_large lifts
    the sparse-dimension cap for matrix-free grid operators that manage
    their own memory.

    Returns the eigenvalues, followed by the maximum relative residual when
    return_residual is set and by the eigenvector (Ritz) block, which has
    at least `count` columns, when return_vectors is set.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    if count < 1 or count > n:
        raise DomainError(f"count must be in [1, {n}]")

    dense_like = isinstance(A, np.ndarray) or sp.issparse(A)
    if isinstance(A, np.ndarray) and n > MAX_DENSE:
        raise DomainError(f"dense dimension {n} exceeds cap {MAX_DENSE}")
    if sp.issparse(A) and n > MAX_SPARSE and not allow_large:
        raise DomainError(f"sparse dimension {n} exceeds cap {MAX_SPARSE}")
    if not dense_like and n > MAX_SPARSE and not allow_large:
        raise DomainError(f"operator dimension {n} exceeds cap {MAX_SPARSE}")

    def result(vals, res, vecs):
        extra = ((res,) if return_residual else ()) + ((vecs,) if return_vectors else ())
        return (vals, *extra) if extra else vals

    if dense_like and (n <= 4000 or isinstance(A, np.ndarray)):
        Ad = _as_dense(A)
        Md = None if M is None else _as_dense(M)
        herm_gap = np.linalg.norm(Ad - Ad.conj().T)
        if herm_gap > 1e-10 * max(np.linalg.norm(Ad), 1e-300):
            raise NumericalError(f"matrix not Hermitian (defect {herm_gap:.2e})")
        try:
            vals, vecs = scipy.linalg.eigh(Ad, Md, subset_by_index=(0, count - 1))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense eigensolve failed: {exc}") from exc
        vals = np.asarray(vals, dtype=float)
        res = None
        if return_residual:
            res = _residuals(Ad, Md, vals, vecs)
            res = float(np.max(res) / max(np.max(np.abs(vals)), 1e-300))
        return result(vals, res, vecs)

    # iterative path
    if M is not None:
        raise DomainError("generalized problems are dense-only in this solver")
    if v0 is None:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    X = np.asarray(v0, dtype=complex)
    if X.ndim != 2 or X.shape[0] != n or X.shape[1] < count:
        raise DomainError("starting block shape mismatch")

    A_mul = (lambda V: A @ V)
    if precond is None:
        T_mul = lambda V: V
    elif isinstance(precond, LinearOperator):
        T_mul = lambda V: precond @ V
    else:
        T_mul = precond

    vals, vecs, rel, iters = _block_preconditioned_eigensolve(
        A_mul, T_mul, X, count, tol, maxiter, spectrum
    )
    if np.all(rel[:count] <= tol):
        out = np.asarray(vals[:count].real, dtype=float)
        return result(out, float(np.max(rel[:count])), vecs)
    raise NumericalError(
        f"eigensolver did not converge: relative residuals "
        f"{np.array2string(rel[:count], precision=3)} exceed tol {tol} "
        f"after {iters} iterations"
    )


def export_triplets(A, path) -> None:
    """Write a matrix in the ASCII triplet exchange format."""
    if sp.issparse(A):
        C = A.tocoo()
        rows, cols, vals = C.row, C.col, C.data
        shape = A.shape
    else:
        A = np.asarray(A)
        rows, cols = np.nonzero(np.ones_like(A, dtype=bool))
        vals = A[rows, cols]
        shape = A.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# bandscan hermitian triplets v1\n")
        fh.write(f"{shape[0]} {shape[1]} {len(vals)}\n")
        for i, j, v in zip(rows, cols, vals):
            v = complex(v)
            fh.write(f"{i} {j} {v.real!r} {v.imag!r}\n")


def read_triplets(path) -> sp.coo_matrix:
    """Read a matrix written by export_triplets."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise DomainError("missing triplet header line")
        nr, nc, nnz = (int(t) for t in fh.readline().split())
        rows = np.empty(nnz, dtype=int)
        cols = np.empty(nnz, dtype=int)
        vals = np.empty(nnz, dtype=complex)
        for idx in range(nnz):
            i, j, re, im = fh.readline().split()
            rows[idx], cols[idx] = int(i), int(j)
            vals[idx] = float(re) + 1j * float(im)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nr, nc))
