import pytest

from stueckelberg.epsilon import (DIM4, DIM5, DIM10, DIM11, BasisIndex,
                                  bivector_component, epsilon)
from stueckelberg.exact import ExactMatrix, GR_ONE


def test_label_inventory():
    assert DIM11.dim == 11
    assert DIM10.dim == 10
    assert DIM5.dim == 5
    assert DIM4.dim == 4
    assert len(set(DIM11.labels)) == 11
    # fixed component order: scalar, vectors, bivectors
    assert str(DIM11.labels[0]) == "0"
    assert [str(l) for l in DIM11.labels[1:5]] == ["1", "2", "3", "4"]
    assert [str(l) for l in DIM11.labels[5:]] == ["[12]", "[13]", "[14]", "[23]", "[24]", "[34]"]


def test_view_nesting():
    assert set(DIM4.labels) <= set(DIM5.labels) <= set(DIM11.labels)
    assert set(DIM10.labels) | {BasisIndex.scalar()} == set(DIM11.labels)


def test_bivector_sign_convention():
    lbl, sign = bivector_component(1, 2)
    assert str(lbl) == "[12]" and sign == 1
    lbl, sign = bivector_component(2, 1)
    assert str(lbl) == "[12]" and sign == -1
    lbl, sign = bivector_component(3, 3)
    assert lbl is None and sign == 0


def test_label_parsing():
    assert BasisIndex.parse("0") == BasisIndex.scalar()
    assert BasisIndex.parse("3") == BasisIndex.vector(3)
    assert BasisIndex.parse("[24]") == BasisIndex.bivector(2, 4)
    assert BasisIndex.parse("24") == BasisIndex.bivector(2, 4)
    with pytest.raises(ValueError):
        BasisIndex.parse("42")  # reversed pair is not a stored label
    with pytest.raises(ValueError):
        BasisIndex.parse("5")


def test_unit_matrix_placement():
    m = epsilon(BasisIndex.vector(1), BasisIndex.vector(2), DIM4)
    assert m[0, 1] == GR_ONE
    assert sum(1 for i in range(4) for j in range(4) if m[i, j]) == 1


def test_unit_commutators():
    from stueckelberg.exact import mat_commutator
    e12 = epsilon(BasisIndex.vector(1), BasisIndex.vector(2), DIM4)
    e21 = epsilon(BasisIndex.vector(2), BasisIndex.vector(1), DIM4)
    e11 = epsilon(BasisIndex.vector(1), BasisIndex.vector(1), DIM4)
    e22 = epsilon(BasisIndex.vector(2), BasisIndex.vector(2), DIM4)
    assert mat_commutator(e12, e21) == e11 - e22
    assert mat_commutator(ExactMatrix.identity(4), e12).is_zero()


def test_out_of_view_errors():
    with pytest.raises(ValueError):
        epsilon(BasisIndex.scalar(), BasisIndex.vector(1), DIM4)
    with pytest.raises(ValueError):
        epsilon(BasisIndex.bivector(1, 2), BasisIndex.vector(1), DIM5)
