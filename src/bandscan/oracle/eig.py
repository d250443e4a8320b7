"""Preconditioned block LOBPCG for the lowest eigenpairs of a real symmetric operator.

The FD oracle's one solver path: `scipy.sparse.linalg.lobpcg` (Knyazev, SISC
23(2), 2001), in real arithmetic.  The operator is applied as A @ V to tall
blocks and the preconditioner as precond(R); the iteration starts from a
caller-supplied block (plane waves, or the Ritz block of a nearby problem),
so fixed inputs give bit-identical output.  Returned eigenpairs are
residual-checked:
||A x - lambda x|| <= tol * scale with scale = max(|lambda|) over the block
(floored by the spectral bound), and a NumericalError carries the residual
report when the iteration cap is hit.  The cap is spent in short calls, each
restarted from the block the last one returned, and only the `count` wanted
columns decide when to stop: a stalled extra column of the block then costs
one short call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, NumericalError

#: Iteration cap of one lobpcg call, and the number of calls before a solve fails.
MAXITER = 40
CALLS = 30

# lobpcg warns when it stops short of its tolerance; the residual check below
# turns that into a NumericalError.  A module-level filter, because
# warnings.catch_warnings() per solve would reset the once-per-location
# registry of every other warning.
warnings.filterwarnings("ignore", r"(Exited|Failed) (at iteration|postprocessing)", UserWarning)


def outside_stacklevel() -> int:
    """`stacklevel` of an oracle warning that names the first line outside this package."""
    from sys import _getframe

    frame, level = _getframe(2), 2
    while frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class EigResult:
    """Sorted lowest eigenvalues of one discretized Bloch problem.

    `vectors` is their eigenvector (Ritz) block, one column per value at
    least; an FD solve starts from it at a nearby wave vector.
    """

    eigenvalues: np.ndarray = field(repr=False)
    residual_norm: float
    vectors: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise NumericalError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)


def hermitian_eigensolve(A, count: int, *, precond, v0, spectrum=None, tol: float = 1e-8):
    """Lowest `count` eigenvalues of a real symmetric operator, by block LOBPCG.

    A has a square `shape` and applies the operator to a real (N, p) block as
    A @ V; precond(R) applies the preconditioner to a residual block.  v0
    is the (N, >= count) starting block: plane waves, or the Ritz block of
    a nearby problem for a warm start; it is not modified.  `spectrum` is an
    interval known to contain every eigenvalue of A: a returned value
    outside it raises NumericalError.

    Returns (eigenvalues, maximum relative residual, Ritz block); the Ritz
    block has as many columns as v0.
    """
    from scipy.sparse.linalg import lobpcg  # lazily: only an FD solve needs it

    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DomainError(f"A: must be square, got shape {A.shape}")
    if count < 1 or count > n:
        raise DomainError(f"count: must be in [1, {n}], got {count}")
    if np.iscomplexobj(v0):
        raise DomainError("v0: starting block must be real")
    X = np.array(v0, dtype=float)  # a copy: lobpcg overwrites its start block
    if X.ndim != 2 or X.shape[0] != n or X.shape[1] < count:
        raise DomainError(f"v0: starting block shape {X.shape} is not ({n}, >= {count})")

    # lobpcg's tol is an absolute residual norm: scale it by the largest
    # Rayleigh quotient of the start block and, on a restart from the block
    # returned, by the values returned.  A call that ends on a stray Ritz
    # value loosens the next call's tolerance, so another call may be needed.
    # A residual is computed to about eps times the operator's norm, so the
    # scale has a floor of a millionth of the spectrum's bound: it binds only
    # on values within that of 0 (0.003 at n = 96 for the FD oracle).
    floor = max(1e-6 * max(map(abs, spectrum)), 1e-8) if spectrum is not None else 1e-8
    quotients = np.einsum("ij,ij->j", X, A @ X) / np.einsum("ij,ij->j", X, X)
    scale = max(float(np.max(np.abs(quotients))), floor)
    applied = []
    for _ in range(CALLS):
        applied.clear()
        try:
            vals, X = lobpcg(lambda V: applied.append(1) or A @ V, X, M=precond,
                             tol=tol * scale, maxiter=MAXITER, largest=False)
        except (ValueError, np.linalg.LinAlgError) as exc:  # a rank-deficient block
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        scale = max(float(np.max(np.abs(vals))), floor)
        R = A @ X - X * vals
        rel = np.linalg.norm(R, axis=0) / scale
        if np.all(rel[:count] <= tol):
            break
        if len(applied) <= 2:
            # lobpcg stopped before its first step: its preconditioned residuals
            # were linearly dependent.  Plane-wave start blocks do that around a
            # small mask, where a combination such as (e^ix - 1)(e^iy - 1)
            # vanishes on all 7 masked nodes; one preconditioned step breaks it.
            X = X - precond(R)
    else:
        raise NumericalError(
            f"eigensolver did not converge: relative residuals "
            f"{np.array2string(rel[:count], precision=3)} exceed tol {tol} "
            f"after {CALLS} calls of up to {MAXITER} iterations"
        )
    out = np.asarray(vals[:count], dtype=float)
    if spectrum is not None:
        lo, hi = spectrum
        slack = 1e-8 * max(abs(lo), abs(hi), 1.0)
        if np.any(out < lo - slack) or np.any(out > hi + slack):
            raise NumericalError(
                f"eigenvalues {np.array2string(out, precision=6)} outside the "
                f"spectral interval [{lo:.6g}, {hi:.6g}]"
            )
    return out, float(np.max(rel[:count])), X
