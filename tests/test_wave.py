import pytest

from stueckelberg.epsilon import BIVECTOR_PAIRS, DIM11, BasisIndex
from stueckelberg.exact import GR_ONE, GaussianRational, mat_commutator
from stueckelberg.wave import wave_matrices

IDX = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def w():
    return wave_matrices()


def test_alpha_scalar_vector_entries(w):
    for nu in IDX:
        a = w.alpha[nu]
        scalar = DIM11.position(BasisIndex.scalar())
        vec = DIM11.position(BasisIndex.vector(nu))
        assert a[scalar, vec] == GR_ONE
        assert a[vec, scalar] == GR_ONE


def test_alpha_traceless_and_symmetric(w):
    for nu in IDX:
        a = w.alpha[nu]
        assert not a.trace()
        assert a == a.transpose()


def test_trilinear_examples(w):
    b = w.beta1
    assert (b[1] @ b[2] @ b[1]).is_zero()
    c = w.beta0
    two = GaussianRational(2)
    assert (c[1] @ c[1] @ c[1]) * two == c[1] * two


def test_lorentz_generator_shape(w):
    for (mu, nu) in BIVECTOR_PAIRS:
        j = w.lorentz[(mu, nu)]
        assert j == -(w.lorentz_signed(nu, mu))
        for a in range(11):
            assert not j[0, a] and not j[a, 0]


def test_lorentz_commutator_examples(w):
    assert mat_commutator(w.lorentz[(1, 2)], w.lorentz[(1, 3)]) == -w.lorentz[(2, 3)]
    assert mat_commutator(w.lorentz[(1, 2)], w.lorentz[(1, 2)]).is_zero()
    assert mat_commutator(w.alpha[1], w.lorentz[(1, 2)]) == w.alpha[2]


def test_eta_scalar_entry(w):
    assert w.eta[0, 0] == -GR_ONE
