import numpy as np
import pytest
import scipy.sparse as sp

from bandscan.errors import DomainError, NumericalError
from bandscan.oracle import eig
from bandscan.oracle.fd import fd_dirichlet_eigenvalues


def _identity(V):
    return V


def test_all_ones_matrix_spectrum():
    # the start block spans the whole space, so one Rayleigh-Ritz step is exact
    J = np.ones((2, 2))
    vals, _, _ = eig.hermitian_eigensolve(J, 2, precond=_identity, v0=np.eye(2))
    assert vals == pytest.approx([0.0, 2.0], abs=1e-14)


def test_diagonal_matrix():
    D = np.diag([3.0, -1.0, 2.0, 0.5])
    vals, _, _ = eig.hermitian_eigensolve(D, 4, precond=_identity, v0=np.ones((4, 4)) + np.eye(4))
    assert np.allclose(vals, [-1.0, 0.5, 2.0, 3.0])


def test_fd_laplacian_constant_mode():
    # a = 0, k = 0: the constant vector is the zero mode
    vals = fd_dirichlet_eigenvalues((0.0, 0.0, 0.0), 0.0, 16, 2).eigenvalues
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] > 0.1


def test_dimension_caps():
    with pytest.raises(DomainError):
        eig.hermitian_eigensolve(np.eye(2), 3, precond=_identity, v0=np.eye(2))
    with pytest.raises(DomainError):
        eig.hermitian_eigensolve(np.eye(3), 2, precond=_identity, v0=np.eye(2))


def test_complex_start_block_rejected():
    # the FD oracle solves a real symmetric problem; lobpcg runs in the start block's type
    with pytest.raises(DomainError, match="real"):
        eig.hermitian_eigensolve(np.eye(3), 2, precond=_identity, v0=np.eye(3) + 0j)


def test_iterative_path_with_preconditioner():
    rng = np.random.default_rng(0)
    n = 6000
    d = np.linspace(1.0, 50.0, n)
    A = sp.diags(d).tocsr()
    X = rng.standard_normal((n, 3))
    prec = lambda V: V / d[:, None]
    vals, res, _ = eig.hermitian_eigensolve(A, 3, precond=prec, v0=X, tol=1e-9)
    assert np.allclose(vals, d[:3], rtol=1e-8)
    assert res <= 1e-9


def test_iterative_determinism():
    n = 5000
    d = np.linspace(0.5, 10.0, n)
    A = sp.diags(d).tocsr()
    prec = lambda V: V / d[:, None]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n, 2))
    v1, _, _ = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)
    v2, _, _ = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X.copy())
    assert np.array_equal(v1, v2)


def _diagonal_problem(n=5000, seed=7):
    d = np.linspace(0.5, 10.0, n)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    return sp.diags(d).tocsr(), (lambda V: V / d[:, None]), X


def test_value_outside_known_spectrum_raises():
    D = np.diag([-1.0, 2.0, 3.0])
    with pytest.raises(NumericalError, match="outside the spectral interval"):
        eig.hermitian_eigensolve(D, 2, precond=_identity, v0=np.eye(3), spectrum=(0.0, 10.0))
    vals, _, _ = eig.hermitian_eigensolve(D, 2, precond=_identity, v0=np.eye(3),
                                          spectrum=(-1.0, 10.0))
    assert np.allclose(vals, [-1.0, 2.0])


def test_start_block_is_not_modified():
    # the FD oracle passes a column slice of the previous Ritz block
    A, prec, X = _diagonal_problem()
    before = X.copy()
    eig.hermitian_eigensolve(A, 2, precond=prec, v0=X[:, :3])
    assert np.array_equal(X, before)


def test_rank_deficient_start_block_raises():
    A, prec, X = _diagonal_problem()
    X[:, 1] = X[:, 0]
    with pytest.raises(NumericalError, match="eigensolver failed"):
        eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)


def test_unconverged_solve_raises_with_residuals(monkeypatch):
    A, prec, X = _diagonal_problem()
    monkeypatch.setattr(eig, "MAXITER", 1)
    with pytest.raises(NumericalError, match=r"relative residuals \[.*\] exceed tol"):
        eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)


def test_iterative_path_returns_ritz_block():
    n = 5000
    d = np.linspace(0.5, 10.0, n)
    A = sp.diags(d).tocsr()
    prec = lambda V: V / d[:, None]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n, 2))
    vals, _, vecs = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)
    assert vecs.shape[0] == n and vecs.shape[1] >= 2
    assert np.allclose(A @ vecs[:, :2], vecs[:, :2] * vals[None, :], atol=1e-7)
