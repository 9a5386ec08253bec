import random
from fractions import Fraction

import pytest

from stueckelberg.exact import (ExactMatrix, GR_MINUS_ONE, GR_ONE,
                                GR_ZERO, GaussianRational, mat_commutator)
from stueckelberg.projectors import (FourMomentum, IrrationalMomentumError,
                                     ProjectorFamily, RestFrameError,
                                     SolutionDyad, dyad_factorize, p_slash,
                                     pure_state_projector, spin_projection_op,
                                     spin_squared)
from stueckelberg.report import SuiteConfig
from stueckelberg.suites import Projectors, _annihilates
from stueckelberg.wave import wave_matrices

# Between them these reach every column the dyad normalisation reads:
# slot 4 for spin 0, slots 1-4 for projection 0, [14], [24] and [34]
# for projection +-1.  The last momentum has 76 bits.
MOMENTA = [(4, (0, 0, 3)), (12, (3, 4, 0)), (24, (2, 3, 6)),
           (4, (3, 0, 0)), (4, (0, 3, 0)), (4, (0, 0, -3)), (12, (0, -3, 4)),
           ("125/7", ("-180/7", "192/7", "144/7")),
           ("58212522009862560453100/12867729", ("-7113344092608446038281/4289243",
                                                 "909261429518884537986/612749",
                                                 "-944665712159658561506/612749"))]


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
    with pytest.raises(ValueError):
        FourMomentum(0, 0, 3, 3, 0)  # massless
    assert FourMomentum.from_mass_and_momentum("1/2", (0, 0, 0)).p0 == Fraction(1, 2)


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
        d = dyad_factorize(delta, p, key)
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
        dyad_factorize(ProjectorFamily.build(p435).m_plus, p435, (1, 1, 1))


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
    d = dyad_factorize(ProjectorFamily.build(p435).deltas[(1, 1, 1)], p435, (1, 1, 1))
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

