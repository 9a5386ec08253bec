import math
import random

import pytest

from stueckelberg.exact import (ExactMatrix, GR_MINUS_ONE, GR_ONE,
                                GR_ZERO, GaussianRational, mat_commutator)
from stueckelberg.projectors import (FourMomentum, IrrationalMomentumError,
                                     ProjectorFamily, RestFrameError,
                                     SolutionDyad, _factor_integer_two_squares,
                                     _gaussian_gcd, _gi_mul_pair, _prime_factors,
                                     _sqrt_minus_one_mod, dyad_factorize, p_slash,
                                     pure_state_projector, spin_projection_op,
                                     spin_squared)
from stueckelberg.report import SuiteConfig
from stueckelberg.suites import Projectors, _annihilates
from stueckelberg.wave import wave_matrices

MOMENTA = [(4, (0, 0, 3)), (12, (3, 4, 0)), (24, (2, 3, 6))]


@pytest.fixture(scope="module")
def w():
    return wave_matrices()


@pytest.fixture(scope="module")
def p435():
    return FourMomentum.from_mass_and_momentum(4, (0, 0, 3))


def test_momentum_validation():
    p = FourMomentum.from_mass_and_momentum(4, (0, 0, 3))
    assert p.p0 == 5
    assert p.p_squared == -16
    with pytest.raises(IrrationalMomentumError):
        FourMomentum.from_mass_and_momentum(1, (1, 1, 0))
    with pytest.raises(ValueError):
        FourMomentum(0, 0, 3, 5, 4 + 1)  # off shell
    with pytest.raises(ValueError):
        FourMomentum(0, 0, 0, 2, -2)


def test_spatial_norm_rationality():
    p = FourMomentum.from_mass_and_momentum(1, (1, 1, 1))  # p0 = 2 but |p| irrational
    assert p.p0 == 2
    with pytest.raises(IrrationalMomentumError):
        p.spatial_norm()


def test_rest_frame_pslash(w):
    p = FourMomentum.from_mass_and_momentum(3, (0, 0, 0))
    ps = p_slash(p)
    assert ps == w.alpha[4] * GaussianRational(0, 3)


def test_spin_squared_in_rest_frame():
    p = FourMomentum.from_mass_and_momentum(2, (0, 0, 0))
    s2 = spin_squared(p)
    assert _annihilates(s2, [GR_ZERO, GaussianRational(2)])


def test_spin_projection_structure(w, p435):
    sp = spin_projection_op(p435)
    assert sp == w.lorentz[(1, 2)] * GaussianRational(0, -1)
    assert _annihilates(sp, [GR_ZERO, GR_ONE, GR_MINUS_ONE])
    assert mat_commutator(sp, p_slash(p435)).is_zero()
    s2 = spin_squared(p435)
    assert (s2 / GaussianRational(2)) @ sp == sp


def test_spin_projection_rest_frame_error():
    p = FourMomentum.from_mass_and_momentum(2, (0, 0, 0))
    with pytest.raises(RestFrameError):
        spin_projection_op(p)


def test_spin_projection_irrational_norm():
    p = FourMomentum.from_mass_and_momentum(1, (1, 1, 1))
    with pytest.raises(IrrationalMomentumError):
        spin_projection_op(p)


def test_pure_state_projector_argument_validation(p435):
    with pytest.raises(ValueError):
        pure_state_projector(p435, 1, 0, 1)
    with pytest.raises(ValueError):
        pure_state_projector(p435, 2, 1, 1)
    with pytest.raises(RestFrameError):
        pure_state_projector(FourMomentum.from_mass_and_momentum(2, (0, 0, 0)), 1, 1, 1)
    with pytest.raises(IrrationalMomentumError):
        pure_state_projector(FourMomentum.from_mass_and_momentum(1, (1, 1, 1)), 1, 1, 1)


@pytest.mark.parametrize("mass,mom", MOMENTA)
def test_dyads(w, mass, mom):
    p = FourMomentum.from_mass_and_momentum(mass, mom)
    fam = ProjectorFamily.build(p)
    for key, delta in sorted(fam.deltas.items()):
        d = dyad_factorize(delta, labels=key)
        col, row, one = d.column, d.row, ExactMatrix.identity(1)
        assert (col.shape, row.shape) == ((11, 1), (1, 11))
        assert d.psi == tuple(col[i, 0] for i in range(11))
        assert d.psi_bar == tuple(row[0, j] for j in range(11))
        assert col @ row == delta
        assert row == (col.dagger() @ w.eta) * d.norm_sign
        assert col.dagger() @ w.eta @ col == one * d.norm_sign
        assert row @ col == one
        # a rank-one idempotent fixes its own column
        assert delta @ col == col
        assert d.norm_sign == (1 if key[1] == 1 else -1)


def test_dyad_rejects_higher_rank(p435):
    with pytest.raises(ValueError, match="pure state"):
        dyad_factorize(ProjectorFamily.build(p435).m_plus)


def _layout_check(dyads):
    """projectors/component-layout at p435 on the given dyads in place of the suite's."""
    suite = Projectors(SuiteConfig(mass=4, momentum=(0, 0, 3)))
    suite.dyads = dyads
    return suite.layout()


def test_random_vector_fails_verification():
    rng = random.Random(11)
    psi = tuple(GaussianRational(rng.randint(1, 5), rng.randint(0, 3)) for _ in range(11))
    bad = SolutionDyad(column=ExactMatrix([[x] for x in psi]), row=ExactMatrix([psi]),
                       labels=(1, 1, 1), norm_sign=1)
    assert _layout_check({(1, 1, 1): bad}) == (False, "state (1, 1, 1)")


def test_layout_half_rejects_a_changed_slot(p435):
    # the layout half of the solution check; its eigen half is the identity
    # projectors/eigen-equation
    d = dyad_factorize(ProjectorFamily.build(p435).deltas[(1, 1, 1)])
    assert _layout_check({(1, 1, 1): d}) is True
    for slot in (0, 6):  # the scalar slot and the [13] slot
        changed = d.column + ExactMatrix.unit(11, 1, slot, 0)
        assert _layout_check({(1, 1, 1): d._replace(column=changed)}) == (
            False, "state (1, 1, 1)")


def test_rest_frame_family_has_no_spin_states():
    p = FourMomentum.from_mass_and_momentum(2, (0, 0, 0))
    fam = ProjectorFamily.build(p)
    assert fam.sigma_p is None
    assert fam.deltas == {}


def _trial_division_two_squares(n):
    """The reference: the two-square factoriser by plain trial division up to sqrt(n)."""
    x, m, d = (1, 0), n, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m, e = m // d, e + 1
        if e and d % 4 == 3 and e % 2:
            return None
        for _ in range(e if d % 4 != 3 else 0):
            x = _gi_mul_pair(x, (1, 1) if d == 2 else
                             _gaussian_gcd((d, 0), (_sqrt_minus_one_mod(d), 1)))
        if e and d % 4 == 3:
            x = _gi_mul_pair(x, (d ** (e // 2), 0))
        d += 1
    if m > 1:
        if m % 4 == 3:
            return None
        x = _gi_mul_pair(x, (1, 1) if m == 2 else
                         _gaussian_gcd((m, 0), (_sqrt_minus_one_mod(m), 1)))
    return abs(x[0]), abs(x[1])


def test_two_square_factoriser_matches_trial_division():
    rng = random.Random(20261019)
    # random n below 10^8, sums of two squares, and products of primes just
    # above the trial bound, which the factoriser splits as squares, by
    # Miller-Rabin and by rho
    big = (1031, 1033, 1049, 1061, 1093)
    ns = [rng.randrange(1, 10 ** 8) for _ in range(1000)] + [
        rng.randrange(10 ** 4) ** 2 + rng.randrange(10 ** 4) ** 2 for _ in range(500)] + [
        rng.choice((1, 2, 3, 5, 9, 13)) * math.prod(rng.sample(big, 3)) * rng.choice(big) ** 2
        for _ in range(100)] + [1031 ** 3, 1033 ** 4, 2 * 1031 * 1033 * 1049]
    for n in ns:
        assert _factor_integer_two_squares(n) == _trial_division_two_squares(n), n
    assert _prime_factors(1031 * 65537 * 999983 ** 2) == {1031: 1, 65537: 1, 999983: 2}
