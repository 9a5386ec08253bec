"""Matrix units over the 11-component label set and its subspace views.

The field has one scalar slot, four vector slots and six bivector slots.
Component order is fixed once and for all as

    (scalar, 1, 2, 3, 4, [12], [13], [14], [23], [24], [34])

so that JSON dumps are reproducible bit for bit.  Bivector labels are
stored once per unordered pair with mu < nu; looking one up with the
indices swapped flips the sign.
"""

from __future__ import annotations

from .exact import ExactMatrix

VECTOR_INDICES = (1, 2, 3, 4)
BIVECTOR_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class BasisIndex:
    """Label of one field component: scalar, vector mu, or bivector [mu nu]."""

    __slots__ = ("kind", "mu", "nu")

    def __init__(self, kind, mu=None, nu=None):
        if kind not in ("scalar", "vector", "bivector"):
            raise ValueError(f"unknown label kind {kind!r}")
        if kind == "scalar" and (mu is not None or nu is not None):
            raise ValueError("scalar label takes no indices")
        if kind == "vector" and (mu not in VECTOR_INDICES or nu is not None):
            raise ValueError("vector label needs mu in 1..4")
        if kind == "bivector" and (mu, nu) not in BIVECTOR_PAIRS:
            raise ValueError("bivector label needs an ordered pair mu < nu in 1..4")
        self.kind = kind
        self.mu = mu
        self.nu = nu

    @staticmethod
    def scalar():
        return _SCALAR

    @staticmethod
    def vector(mu):
        return _VECTORS[mu]

    @staticmethod
    def bivector(mu, nu):
        return _BIVECTORS[(mu, nu)]

    @staticmethod
    def parse(text):
        """Accepts '0', '1'..'4', '[12]' or '12' style labels."""
        t = text.strip().strip("[]")
        if t == "0":
            return _SCALAR
        if len(t) == 1 and t in "1234":
            return _VECTORS[int(t)]
        if len(t) == 2 and all(c in "1234" for c in t):
            mu, nu = int(t[0]), int(t[1])
            label, sign = bivector_component(mu, nu)
            if label is None or sign < 0:
                raise ValueError(f"bivector label {text!r} is not an ordered pair")
            return label
        raise ValueError(f"cannot parse basis label {text!r}")

    def __eq__(self, other):
        return (isinstance(other, BasisIndex)
                and self.kind == other.kind and self.mu == other.mu and self.nu == other.nu)

    def __hash__(self):
        return hash((self.kind, self.mu, self.nu))

    def __repr__(self):
        return f"BasisIndex({self})"

    def __str__(self):
        if self.kind == "scalar":
            return "0"
        if self.kind == "vector":
            return str(self.mu)
        return f"[{self.mu}{self.nu}]"


_SCALAR = BasisIndex("scalar")
_VECTORS = {mu: BasisIndex("vector", mu) for mu in VECTOR_INDICES}
_BIVECTORS = {p: BasisIndex("bivector", *p) for p in BIVECTOR_PAIRS}


def bivector_component(mu, nu):
    """(label, sign) for an unordered pair: sign -1 if swapped, 0 if mu == nu."""
    if mu == nu:
        return (None, 0)
    if mu < nu:
        return (_BIVECTORS[(mu, nu)], 1)
    return (_BIVECTORS[(nu, mu)], -1)


class SpaceView:
    """An ordered subset of the 11 labels, giving matrix positions."""

    __slots__ = ("name", "labels", "_pos")

    def __init__(self, name, labels):
        self.name = name
        self.labels = tuple(labels)
        self._pos = {lbl: i for i, lbl in enumerate(self.labels)}

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


_ALL_LABELS = (_SCALAR,) + tuple(_VECTORS[mu] for mu in VECTOR_INDICES) \
    + tuple(_BIVECTORS[p] for p in BIVECTOR_PAIRS)

DIM4 = SpaceView("dim4", tuple(_VECTORS[mu] for mu in VECTOR_INDICES))
DIM5 = SpaceView("dim5", (_SCALAR,) + tuple(_VECTORS[mu] for mu in VECTOR_INDICES))
DIM10 = SpaceView("dim10", tuple(_VECTORS[mu] for mu in VECTOR_INDICES)
                  + tuple(_BIVECTORS[p] for p in BIVECTOR_PAIRS))
DIM11 = SpaceView("dim11", _ALL_LABELS)

SPACES = {v.name: v for v in (DIM4, DIM5, DIM10, DIM11)}


def epsilon(a: BasisIndex, b: BasisIndex, space: SpaceView) -> ExactMatrix:
    """The matrix unit with a single 1 at (position a, position b)."""
    return ExactMatrix.unit(space.dim, space.dim, space.position(a), space.position(b))


def epsilon_delta(a: BasisIndex, b: BasisIndex):
    """Product-rule delta on stored (ordered) labels; plain equality.

    On ordered bivector representatives the antisymmetrised delta
    collapses to equality because the cross term would need mu > nu on
    one side.
    """
    return 1 if a == b else 0

