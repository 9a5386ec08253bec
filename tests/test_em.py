from fractions import Fraction

import pytest

from exact_helpers import gr
from stueckelberg.em import (U2Element, em_hamiltonian, pauli, polarization_state,
                             stokes_expectations)
from stueckelberg.exact import ExactMatrix, GR_ONE, GR_ZERO, GaussianRational

F = Fraction
CS_A = (F(3, 5), F(4, 5))
CS_B = (F(5, 13), F(12, 13))


def test_photon_eigenvalues():
    h = em_hamiltonian(F(5))
    s = polarization_state({(2, 1): GR_ONE}, 4)
    assert h.apply(s) == s.scale(gr(15))


def test_stokes_rejects_bad_states():
    from stueckelberg.fock import FockPolyState
    with pytest.raises(ValueError):
        stokes_expectations(FockPolyState({(0, 0, 1, 0): GR_ONE}, 4, 2))
    with pytest.raises(ValueError):
        stokes_expectations(polarization_state({(1, 0): GR_ZERO}, 4))


def test_u2_element_validation():
    U2Element.from_params(CS_A, (0, 0, 1), CS_B)
    with pytest.raises(ValueError):
        U2Element.from_params((F(1, 2), F(1, 2)), (0, 0, 1), (1, 0))
    with pytest.raises(ValueError):
        U2Element.from_params((1, 0), (1, 1, 0), (1, 0))  # n not unit
    with pytest.raises(ValueError):
        U2Element(ExactMatrix([[1, 1], [0, 1]]))  # not unitary


def test_exponential_expansion_matches_rotation():
    # cos I + i sin tau2 must come out as the real rotation block
    c, s = CS_A
    u = U2Element.from_params((1, 0), (0, 1, 0), CS_A)
    manual = ExactMatrix.identity(2) * gr(c) + pauli()[2] * GaussianRational(0, s)
    assert u.matrix == manual
    assert u.matrix == ExactMatrix([[c, s], [-s, c]])


def test_adjoint_rotations_are_orthogonal():
    for u in (U2Element.from_params((1, 0), (0, 0, 1), CS_B), U2Element.dual_rotation(CS_A)):
        r = u.adjoint_rotation()
        assert r.transpose() @ r == ExactMatrix.identity(3)
