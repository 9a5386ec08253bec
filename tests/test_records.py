"""The record types: validated on construction, immutable, equal by value."""

import marshal
from fractions import Fraction

import pytest

from stueckelberg.em import U2Element
from stueckelberg.exact import GR_I, GR_ONE, ExactMatrix
from stueckelberg.fock import LadderOp
from stueckelberg.modes import ModeContext, U31Params
from stueckelberg.projectors import FourMomentum, ProjectorFamily, SolutionDyad
from stueckelberg.report import SuiteConfig
from stueckelberg.suites import IdentityRecord
from stueckelberg.wave import wave_matrices

P = FourMomentum.from_mass_and_momentum(4, (0, 0, 3))


@pytest.mark.parametrize("record,field", [
    (LadderOp(1, "create"), "mode"),
    (ModeContext(5), "k0"),
    (U31Params(), "omega0"),
    (P, "p0"),
    (ProjectorFamily.build(P), "m_plus"),
    (SolutionDyad(ExactMatrix.identity(1), ExactMatrix.identity(1), (1, 0, 0), 1), "norm_sign"),
    (wave_matrices(), "eta"),
    (U2Element(ExactMatrix.identity(2)), "matrix"),
    (SuiteConfig(), "workers"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_frozen_record_rejects_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("make", [
    lambda: LadderOp(5, "create"),
    lambda: LadderOp(0, "annihilate"),
    lambda: LadderOp(1, "sideways"),
    lambda: U2Element(ExactMatrix.identity(3)),
], ids=["mode-5", "mode-0", "direction", "u2-shape"])
def test_record_validation_still_raises(make):
    # ModeContext and U31Params validation: tests/test_modes.py
    with pytest.raises(ValueError):
        make()


def test_records_coerce_their_fields():
    assert ModeContext("5/2").k0 == Fraction(5, 2)
    cfg = SuiteConfig(suites=["em"], mass="12", momentum=["3", "4", "0"], k0=2)
    assert cfg == SuiteConfig(suites=("em",), mass=Fraction(12),
                              momentum=(Fraction(3), Fraction(4), Fraction(0)),
                              k0=Fraction(2))
    assert all(isinstance(c, Fraction) for c in cfg.momentum)


@pytest.mark.parametrize("record", [
    IdentityRecord(suite="fock", ident="gram-indefinite", claim="a claim", status="fail",
                   witness="state (0, 0, 0, 1)", elapsed_ms=1.5),
    IdentityRecord("em", "su2-commutators", "a claim", "skip", reason="why"),
], ids=["IdentityRecord-fail", "IdentityRecord-skip"])
def test_records_survive_the_fork_transport(record):
    # a forked worker sends each record's fields back with marshal
    (index, fields), = marshal.loads(marshal.dumps([(7, tuple(record))]))
    copy = IdentityRecord(*fields)
    assert index == 7 and copy == record and type(copy) is IdentityRecord


def test_u31_params_hold_an_antisymmetric_and_a_symmetric_table():
    par = U31Params(antisym={(1, 2): GR_ONE, (2, 4): GR_I}, sym={(1, 3): GR_ONE, (4, 4): 2})
    assert par.a.transpose() == -par.a and par.s.transpose() == par.s
    assert par.a[0, 1] == GR_ONE and par.a[3, 1] == -GR_I
    assert par.s[2, 0] == GR_ONE and par.s[3, 3] == 2 and par.s.trace() == 2
    assert par.traceless().trace() == 0
    assert U31Params().a.is_zero() and U31Params().s.is_zero()


def test_equal_four_momenta_hash_alike():
    q = FourMomentum(0, 0, 3, 5, 4)
    assert q == P and hash(q) == hash(P) and len({q, P}) == 1
    assert q != FourMomentum.from_mass_and_momentum(12, (3, 4, 0))
