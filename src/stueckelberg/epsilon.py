"""Matrix units over the 11-component label set and its subspace views.

The field has one scalar slot, four vector slots and six bivector slots,
labelled by the strings "0", "1".."4" and "[12]".."[34]".  Component
order is fixed once and for all as

    (0, 1, 2, 3, 4, [12], [13], [14], [23], [24], [34])

so that JSON dumps are reproducible bit for bit.  Bivector labels are
stored once per unordered pair with mu < nu; looking one up with the
indices swapped flips the sign.
"""

from __future__ import annotations

from .exact import ExactMatrix

VECTOR_INDICES = (1, 2, 3, 4)
BIVECTOR_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def parse_label(text):
    """The label that '0', '1'..'4', '[12]' or '12' style text names."""
    t = text.strip().strip("[]")
    label = t if len(t) == 1 else f"[{t}]"
    if label in DIM11:
        return label
    if len(t) == 2 and all(c in "1234" for c in t):
        raise ValueError(f"bivector label {text!r} is not an ordered pair")
    raise ValueError(f"cannot parse basis label {text!r}")


def bivector_component(mu, nu):
    """(label, sign) for an unordered pair: sign -1 if swapped, 0 if mu == nu."""
    if mu == nu:
        return (None, 0)
    if mu < nu:
        return (f"[{mu}{nu}]", 1)
    return (f"[{nu}{mu}]", -1)


def levi_civita(perm):
    """The Levi-Civita symbol of a permutation of (1, ..., n): -1 to its inversion count."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


class SpaceView:
    """An ordered subset of the 11 labels, giving matrix positions."""

    __slots__ = ("name", "labels", "_pos")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self._pos = {lbl: i for i, lbl in enumerate(labels)}

    @property
    def dim(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._pos

    def position(self, label):
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"label {label} not in view {self.name}") from None

    def __repr__(self):
        return f"SpaceView({self.name}, dim={self.dim})"


DIM4 = SpaceView("dim4", ("1", "2", "3", "4"))
DIM5 = SpaceView("dim5", ("0", "1", "2", "3", "4"))
DIM10 = SpaceView("dim10", ("1", "2", "3", "4", "[12]", "[13]", "[14]", "[23]", "[24]", "[34]"))
DIM11 = SpaceView("dim11", ("0", "1", "2", "3", "4",
                            "[12]", "[13]", "[14]", "[23]", "[24]", "[34]"))

SPACES = {v.name: v for v in (DIM4, DIM5, DIM10, DIM11)}


def epsilon(a: str, b: str, space: SpaceView) -> ExactMatrix:
    """The matrix unit with a single 1 at (position a, position b)."""
    return ExactMatrix.unit(space.dim, space.dim, space.position(a), space.position(b))


def epsilon_delta(a: str, b: str):
    """Product-rule delta on stored (ordered) labels; plain equality.

    On ordered bivector representatives the antisymmetrised delta
    collapses to equality because the cross term would need mu > nu on
    one side.
    """
    return 1 if a == b else 0
