"""Every library refusal of bad input raises DomainError whose message starts `<field>: `."""

import math

import numpy as np
import pytest

from bandscan.capacitance import capacitance_ellipsoid
from bandscan.dirichlet import DirichletParams
from bandscan.errors import DomainError
from bandscan.oracle import eig, fd, pwe
from bandscan.transmission import MaterialSpec, TransmissionParams

K = (0.2, 0.1, 0.15)
UNIFORM = MaterialSpec(1.0, 1.0, 1.0, 1.0)
PWE = TransmissionParams(UNIFORM, a=0.5)


def _identity(V):
    return V


@pytest.mark.parametrize("field, call", [
    ("a", lambda: DirichletParams(a=2.0)),
    ("a", lambda: DirichletParams(a=-0.1)),
    ("a", lambda: DirichletParams(a=math.nan)),
    ("q", lambda: DirichletParams(a=0.1, q=0.0)),
    ("a", lambda: TransmissionParams(UNIFORM, a=0.0)),
    ("a", lambda: TransmissionParams(UNIFORM, a=4.0)),  # volume fraction 1.09
    ("gamma_minus", lambda: MaterialSpec(1.0, -1.0, 1.0, 1.0)),
    ("rho_minus", lambda: MaterialSpec(1.0, 1.0, 1.0, math.inf)),
    ("count", lambda: fd.fd_dirichlet_eigenvalues(K, 0.0, 16, 0)),
    ("a", lambda: fd.fd_dirichlet_eigenvalues(K, 2.0, 24, 1)),
    ("a", lambda: fd.fd_dirichlet_eigenvalues(K, -0.1, 24, 1)),
    # a non-finite k once ended in "eigensolver failed: eigh has failed in lobpcg postprocessing"
    ("k", lambda: fd.fd_dirichlet_eigenvalues((math.nan, 0.1, 0.15), 0.0, 16, 1)),
    ("k", lambda: fd.fd_dirichlet_eigenvalues((math.inf, 0.1, 0.15), 0.0, 16, 1)),
    ("k", lambda: fd.fd_dirichlet_eigenvalues((0.2, 0.1), 0.0, 16, 1)),
    ("v0", lambda: fd.fd_dirichlet_eigenvalues(K, 0.0, 16, 1, v0=np.zeros((3, 2)))),
    ("g_max", lambda: pwe.pwe_transmission_eigenvalues(K, PWE, 7, 1)),
    ("g_max", lambda: pwe.pwe_transmission_eigenvalues(K, PWE, 1, 1)),
    ("count", lambda: pwe.pwe_transmission_eigenvalues(K, PWE, 2, 0)),
    ("count", lambda: pwe.pwe_transmission_eigenvalues(K, PWE, 2, 10**6)),
    # ... and in "PWE assembly not symmetric (defect nan)"; two components in an IndexError
    ("k", lambda: pwe.pwe_transmission_eigenvalues((math.nan, 0.1, 0.15), PWE, 2, 1)),
    ("k", lambda: pwe.pwe_transmission_eigenvalues((0.2, -math.inf, 0.15), PWE, 2, 1)),
    ("k", lambda: pwe.pwe_transmission_eigenvalues((0.2, 0.1), PWE, 2, 1)),
    ("a", lambda: pwe.sphere_indicator_fourier(1.0, 0.0)),
    ("A", lambda: eig.hermitian_eigensolve(np.ones((2, 3)), 1, precond=_identity,
                                           v0=np.eye(2))),
    ("count", lambda: eig.hermitian_eigensolve(np.eye(2), 3, precond=_identity, v0=np.eye(2))),
    ("v0", lambda: eig.hermitian_eigensolve(np.eye(2), 1, precond=_identity,
                                            v0=np.eye(2) * 1j)),
    ("v0", lambda: eig.hermitian_eigensolve(np.eye(3), 2, precond=_identity, v0=np.eye(2))),
    ("semiaxes", lambda: capacitance_ellipsoid(1.0, 2.0, 3.0)),
])
def test_refusal_is_a_domain_error_that_names_its_field(field, call):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value).startswith(f"{field}: ")
