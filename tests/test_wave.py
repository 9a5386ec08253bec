import pytest

from stueckelberg.epsilon import BIVECTOR_PAIRS, DIM11
from stueckelberg.exact import GR_ONE
from stueckelberg.wave import wave_matrices

IDX = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def w():
    return wave_matrices()


def test_alpha_scalar_vector_entries(w):
    for nu in IDX:
        a = w.alpha[nu]
        scalar = DIM11.position("0")
        vec = DIM11.position(str(nu))
        assert a[scalar, vec] == GR_ONE
        assert a[vec, scalar] == GR_ONE


def test_alpha_traceless_and_symmetric(w):
    for nu in IDX:
        a = w.alpha[nu]
        assert not a.trace()
        assert a == a.transpose()


def test_lorentz_generator_shape(w):
    for (mu, nu) in BIVECTOR_PAIRS:
        assert w.lorentz[(mu, nu)] == -(w.lorentz_signed(nu, mu))


def test_eta_scalar_entry(w):
    assert w.eta[0, 0] == -GR_ONE
