from fractions import Fraction

import pytest

from exact_helpers import gr
from stueckelberg.exact import GR_I, GR_ONE
from stueckelberg.modes import (ModeContext, QuadraticObservable, U31Params,
                                basis_directions, conserved_charges, generating_function,
                                generator_matrix, hamiltonian,
                                infinitesimal_transform, pi_sym, q_sym,
                                trace_direction)


@pytest.fixture(scope="module")
def ctx():
    return ModeContext(Fraction(5))


def test_observable_algebra_guard():
    q = q_sym(1)
    with pytest.raises(ValueError):
        (q * q) * q  # degree 3 is out of scope


def test_product_adds_equal_monomials():
    s = q_sym(1) + q_sym(2)
    assert s * s == q_sym(1) * q_sym(1) + (q_sym(1) * q_sym(2)).scale(gr(2)) + q_sym(2) * q_sym(2)


def test_hamiltonian_single_excitation(ctx):
    # H = (1/2) sum (pi_mu^2 + k0^2 q_mu^2): symbols 0..3 are q, 4..7 are pi
    half = gr(Fraction(1, 2))
    want = {(i, i): gr(Fraction(25, 2)) if i < 4 else half for i in range(8)}
    assert dict(hamiltonian(ctx).coeffs) == want
    # unit frequency: every square carries 1/2
    unit = hamiltonian(ModeContext(Fraction(1)))
    assert dict(unit.coeffs) == {(i, i): half for i in range(8)}


def test_reality_pattern_enforced():
    U31Params(omega0=GR_ONE)
    U31Params(antisym={(1, 4): GR_I})
    U31Params(sym={(2, 4): gr(0, 3)})
    U31Params(sym={(4, 4): gr(2)})
    with pytest.raises(ValueError):
        U31Params(omega0=GR_I)
    with pytest.raises(ValueError):
        U31Params(antisym={(1, 4): GR_ONE})
    with pytest.raises(ValueError):
        U31Params(antisym={(1, 2): GR_I})
    with pytest.raises(ValueError):
        U31Params(sym={(1, 4): GR_ONE})
    with pytest.raises(ValueError):
        U31Params(sym={(4, 4): GR_I})
    for bad in ({(2, 1): GR_ONE}, {(2, 2): GR_ONE}, {(1, 5): GR_ONE}):  # unordered or no mode
        with pytest.raises(ValueError):
            U31Params(antisym=bad)
    with pytest.raises(ValueError):
        U31Params(sym={(1, 5): GR_ONE})


def test_phase_only_variation(ctx):
    par = U31Params(omega0=gr(Fraction(1, 3)))
    qs = tuple(q_sym(m) for m in range(1, 5))
    pis = tuple(pi_sym(m) for m in range(1, 5))
    dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
    k0 = gr(5)
    for mu in range(1, 5):
        assert dq[mu - 1] == pi_sym(mu).scale(gr(Fraction(1, 3)) / k0)
        assert dpi[mu - 1] == q_sym(mu).scale(-gr(Fraction(1, 3)) * k0)


def test_rotation_only_variation(ctx):
    om = gr(Fraction(1, 2))
    par = U31Params(antisym={(1, 2): om})
    qs = tuple(q_sym(m) for m in range(1, 5))
    pis = tuple(pi_sym(m) for m in range(1, 5))
    dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
    two_om = om + om
    assert dq[0] == q_sym(2).scale(two_om)
    assert dq[1] == q_sym(1).scale(-two_om)
    assert dpi[0] == pi_sym(2).scale(two_om)
    assert dq[2].is_zero() and dq[3].is_zero()


def test_zero_parameters_zero_variation(ctx):
    par = U31Params()
    qs = tuple(q_sym(m) for m in range(1, 5))
    pis = tuple(pi_sym(m) for m in range(1, 5))
    dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
    assert all(o.is_zero() for o in dq + dpi)


def test_generating_function_identity_part(ctx):
    f = generating_function(U31Params(), ctx)
    want = QuadraticObservable()
    for mu in range(1, 5):
        want = want + q_sym(mu) * pi_sym(mu)
    assert f == want


def test_trace_direction_acts_trivially(ctx):
    par = trace_direction()
    qs = tuple(q_sym(m) for m in range(1, 5))
    pis = tuple(pi_sym(m) for m in range(1, 5))
    dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
    assert all(o.is_zero() for o in dq + dpi)
    assert generator_matrix(par).is_zero()


@pytest.mark.parametrize("k0", [Fraction(5), Fraction(37, 11)], ids=["k0=5", "k0=37/11"])
def test_generator_matrix_is_the_amplitude_flow(k0):
    # B_mu = q_mu + i pi_mu / k0, the amplitude of amplitude_form_hamiltonian:
    # the canonical flow moves it by the generator matrix, delta B = G B,
    # which pins the sign of the central phase term that no commutator sees
    mode = ModeContext(k0)
    qs = tuple(q_sym(m) for m in range(1, 5))
    pis = tuple(pi_sym(m) for m in range(1, 5))
    i_k0 = GR_I / gr(k0)
    amp = [q + p.scale(i_k0) for q, p in zip(qs, pis)]
    for name, par in basis_directions() + [("trace", trace_direction())]:
        g = generator_matrix(par)
        dq, dpi = infinitesimal_transform(qs, pis, par, mode)
        for mu in range(4):
            want = QuadraticObservable()
            for nu in range(4):
                want = want + amp[nu].scale(g[mu, nu])
            assert dq[mu] + dpi[mu].scale(i_k0) == want, (name, mu)


def test_seventeen_conserved_charges(ctx):
    # u31/charges-conserved checks that each one commutes with the energy
    assert len(conserved_charges(ctx)) == 17


def test_mode_context_validation():
    with pytest.raises(ValueError):
        ModeContext(Fraction(0))
    with pytest.raises(ValueError):
        ModeContext(Fraction(-2))
