"""Preconditioned block LOBPCG for the lowest eigenpairs of a Hermitian operator.

The FD oracle's one solver path.  The operator is applied as A @ V to tall
blocks and the preconditioner as precond(R); the iteration starts from a
caller-supplied block (plane waves, or the Ritz block of a nearby problem),
so fixed inputs give bit-identical output.  Returned eigenpairs are
residual-checked: ||A x - lambda x|| <= tol * scale with scale =
max(|lambda|) over the block, and a NumericalError carries the residual
report when the iteration cap is hit.

The iteration keeps its search basis orthonormal: X^H Y products are single
zgemm calls, blocks are orthonormalized by Cholesky-QR run twice (Householder
QR when the Gram matrix is not safely positive definite), and the
Rayleigh-Ritz step drops directions whose Gram eigenvalues are negligible
and any Ritz value outside a known spectral interval, so an ill-conditioned
basis cannot produce a ghost eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm

from ..errors import DomainError, NumericalError


@dataclass(frozen=True)
class EigResult:
    """Sorted lowest eigenvalues of one discretized Bloch problem.

    `vectors` is the eigenvector (Ritz) block when the solver returns one;
    it warm-starts the solve at a nearby wave vector.
    """

    eigenvalues: np.ndarray = field(repr=False)
    residual_norm: float
    vectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise NumericalError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)


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


def _block_preconditioned_eigensolve(A, precond, X0, count, tol, maxiter, spectrum=None):
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
    AX = A @ X
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
            AX = A @ X
            theta, C = _rayleigh_ritz(X, AX, spectrum)
            X, AX = X @ C, AX @ C
            R, rel = _residuals_rel(X, AX, theta)
            if np.all(rel[:count] <= tol):
                return theta, X, rel, it
            XP, AXP, PAP, mx = X, AX, None, X.shape[1]
        W = precond(R[:, rel > tol])
        norms = np.linalg.norm(W, axis=0)
        # one projection pass: the Gram matrix below is exact, so what it
        # leaves of [X, P] in W is accounted for in the Rayleigh-Ritz step
        W = W - XP @ _inner(XP, W)
        W = W[:, np.linalg.norm(W, axis=0) > 1e-10 * norms]
        if W.shape[1] == 0:
            return theta, np.ascontiguousarray(X), rel, it
        W = _orthonormalize(W)
        AW = A @ W
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
    *,
    precond,
    v0,
    spectrum=None,
    tol: float = 1e-8,
    maxiter: int = 400,
):
    """Lowest `count` eigenvalues of a Hermitian operator, by block LOBPCG.

    A has a square `shape` and applies the operator to an (N, p) block as
    A @ V; precond(R) applies the preconditioner to a residual block.  v0
    is the (N, >= count) starting block: plane waves, or the Ritz block of
    a nearby problem for a warm start.  `spectrum` is an interval known to
    contain every eigenvalue of A: Ritz values outside it are rejected.

    Returns (eigenvalues, maximum relative residual, Ritz block); the Ritz
    block has at least `count` columns.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    if count < 1 or count > n:
        raise DomainError(f"count must be in [1, {n}]")
    X = np.asarray(v0, dtype=complex)
    if X.ndim != 2 or X.shape[0] != n or X.shape[1] < count:
        raise DomainError("starting block shape mismatch")

    vals, vecs, rel, iters = _block_preconditioned_eigensolve(
        A, precond, X, count, tol, maxiter, spectrum
    )
    if np.all(rel[:count] <= tol):
        out = np.asarray(vals[:count].real, dtype=float)
        return out, float(np.max(rel[:count])), vecs
    raise NumericalError(
        f"eigensolver did not converge: relative residuals "
        f"{np.array2string(rel[:count], precision=3)} exceed tol {tol} "
        f"after {iters} iterations"
    )
