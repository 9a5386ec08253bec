import pytest

from stueckelberg.epsilon import (DIM4, DIM5, DIM10, DIM11, bivector_component, epsilon,
                                  parse_label)
from stueckelberg.exact import ExactMatrix, GR_ONE


def test_label_inventory():
    assert DIM11.dim == 11
    assert DIM10.dim == 10
    assert DIM5.dim == 5
    assert DIM4.dim == 4
    assert len(set(DIM11.labels)) == 11
    # fixed component order: scalar, vectors, bivectors
    assert DIM11.labels == ("0", "1", "2", "3", "4",
                            "[12]", "[13]", "[14]", "[23]", "[24]", "[34]")


def test_view_nesting():
    assert set(DIM4.labels) <= set(DIM5.labels) <= set(DIM11.labels)
    assert set(DIM10.labels) | {"0"} == set(DIM11.labels)


def test_bivector_sign_convention():
    lbl, sign = bivector_component(1, 2)
    assert lbl == "[12]" and sign == 1
    lbl, sign = bivector_component(2, 1)
    assert lbl == "[12]" and sign == -1
    lbl, sign = bivector_component(3, 3)
    assert lbl is None and sign == 0


def test_label_parsing():
    assert [parse_label(t) for t in ("0", "3", " [24] ", "24")] == ["0", "3", "[24]", "[24]"]
    for text in ("42", "33"):  # a reversed or repeated pair is not a stored label
        with pytest.raises(ValueError, match="is not an ordered pair"):
            parse_label(text)
    for text in ("5", "[]", "04", "123"):
        with pytest.raises(ValueError, match="cannot parse basis label"):
            parse_label(text)


def test_unit_matrix_placement():
    m = epsilon("1", "2", DIM4)
    assert m[0, 1] == GR_ONE
    assert sum(1 for i in range(4) for j in range(4) if m[i, j]) == 1


def test_unit_commutators():
    from stueckelberg.exact import mat_commutator
    e12 = epsilon("1", "2", DIM4)
    e21 = epsilon("2", "1", DIM4)
    e11 = epsilon("1", "1", DIM4)
    e22 = epsilon("2", "2", DIM4)
    assert mat_commutator(e12, e21) == e11 - e22
    assert mat_commutator(ExactMatrix.identity(4), e12).is_zero()


def test_out_of_view_errors():
    with pytest.raises(ValueError):
        epsilon("0", "1", DIM4)
    with pytest.raises(ValueError):
        epsilon("[12]", "1", DIM5)
