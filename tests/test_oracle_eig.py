import numpy as np
import pytest
import scipy.sparse as sp

from bandscan.errors import DomainError
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


def test_iterative_path_with_preconditioner():
    rng = np.random.default_rng(0)
    n = 6000
    d = np.linspace(1.0, 50.0, n)
    A = sp.diags(d).tocsr()
    X = rng.standard_normal((n, 3)) + 0j
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
    X = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    v1, _, _ = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)
    v2, _, _ = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X.copy())
    assert np.array_equal(v1, v2)


def test_rayleigh_ritz_rejects_ghost_values():
    # one basis direction nearly dependent on the others (condition numbers
    # 1e6 to 1e15): no Ritz value may leave the spectrum [0, 40] of A
    N, q = 200, 12
    lam = np.linspace(0.0, 40.0, N)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        A = (Q * lam) @ Q.conj().T
        X, _ = np.linalg.qr(rng.standard_normal((N, q)) + 1j * rng.standard_normal((N, q)))
        c = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        for dep in 10.0 ** np.arange(6.0, 15.5, 0.5):
            S = X.copy()
            S[:, -1] = X[:, :-1] @ c / np.linalg.norm(c) + X[:, -1] / dep
            theta, C = eig._rayleigh_ritz(S, A @ S)
            assert theta.min() >= -40e-8 and theta.max() <= 40.0 * (1.0 + 1e-8), (dep, seed)
            # the returned Ritz vectors are orthonormal
            V = S @ C
            assert np.allclose(V.conj().T @ V, np.eye(C.shape[1]), atol=1e-6)


def test_ritz_values_outside_known_spectrum_are_dropped():
    Mg = np.eye(3, dtype=complex)
    G = np.diag([-1.0, 2.0, 3.0]).astype(complex)
    theta, C = eig._ritz_from_gram(Mg, G, spectrum=(0.0, 10.0))
    assert np.allclose(theta, [2.0, 3.0])
    assert C.shape == (3, 2)


def test_orthonormalize_drops_dependent_columns():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    # well conditioned: Cholesky-QR; a repeated column: Householder fallback
    for block, rank in ((V, 4), (np.column_stack([V, V[:, 1]]), 4)):
        Q = eig._orthonormalize(block)
        assert Q.shape == (500, rank)
        assert np.allclose(Q.conj().T @ Q, np.eye(rank), atol=1e-12)
        assert np.allclose(Q @ (Q.conj().T @ V), V, atol=1e-10)


def test_inner_is_conjugate_transpose_product():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
    Y = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
    assert np.allclose(eig._inner(X, Y), X.conj().T @ Y, atol=1e-12)


def test_iterative_path_returns_ritz_block():
    n = 5000
    d = np.linspace(0.5, 10.0, n)
    A = sp.diags(d).tocsr()
    prec = lambda V: V / d[:, None]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    vals, _, vecs = eig.hermitian_eigensolve(A, 2, precond=prec, v0=X)
    assert vecs.shape[0] == n and vecs.shape[1] >= 2
    assert np.allclose(A @ vecs[:, :2], vecs[:, :2] * vals[None, :], atol=1e-7)
