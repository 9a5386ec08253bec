"""Two-transverse-mode reduction: U(2) symmetry, rotation charges, Stokes values.

The starting point is the reduced system itself: two positive-metric
oscillator modes with the number Hamiltonian.  Group elements are only
instantiated when their two-by-two matrices are exactly rational, i.e.
for Pythagorean angle pairs and exact phases; generator-level statements
are checked through anti-Hermiticity, which is the first-order form of
unitarity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import (ExactMatrix, GR_I, GR_ONE, GR_ZERO, GaussianRational, as_fraction,
                    assemble, mat_columns)
from .fock import BilinearOperator, FockPolyState, inner_product


@lru_cache(maxsize=None)
def pauli():
    """The Pauli matrices tau_1, tau_2, tau_3, keyed 1 to 3, built on first use."""
    return {1: ExactMatrix([[GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO]]),
            2: ExactMatrix([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]]),
            3: ExactMatrix([[GR_ONE, GR_ZERO], [GR_ZERO, -GR_ONE]])}


def polarization_state(coeffs, truncation) -> FockPolyState:
    """Two-mode state: {(n1, n2): coefficient} with modes 3, 4 empty."""
    full = {(n1, n2, 0, 0): v for (n1, n2), v in coeffs.items()}
    return FockPolyState(full, truncation, scheme=2)


def one_photon(mode: int, truncation) -> FockPolyState:
    return polarization_state({(1, 0) if mode == 1 else (0, 1): GR_ONE}, truncation)


@lru_cache(maxsize=None)
def stokes_tables():
    """The coefficient tables M of the four charges b^+ M b on the two modes.

    They are the photon-number half I/2 and the rotation triplet tau_i/2.
    """
    return (ExactMatrix.identity(2) * Fraction(1, 2),) + tuple(
        pauli()[i] * Fraction(1, 2) for i in (1, 2, 3))


def su2_charges() -> dict:
    """The four conserved bilinears: rotation triplet and the photon number half."""
    return {i: BilinearOperator.from_table(t) for i, t in enumerate(stokes_tables())}


def em_hamiltonian(k0) -> BilinearOperator:
    """Number Hamiltonian of the two transverse modes."""
    k0 = GaussianRational(as_fraction(k0))
    return BilinearOperator({(1, 1): k0, (2, 2): k0}, scheme=2)


def _check_pythagorean(c, s):
    c, s = as_fraction(c), as_fraction(s)
    if c * c + s * s != 1:
        raise ValueError(f"({c}, {s}) is not an exact cosine/sine pair")
    return c, s


class U2Element(namedtuple("U2Element", "matrix")):
    """A two-mode symmetry transformation with an exactly rational matrix."""

    __slots__ = ()

    def __new__(cls, matrix: ExactMatrix):
        if matrix.shape != (2, 2):
            raise ValueError("U(2) element needs a 2x2 matrix")
        if matrix.dagger() @ matrix != ExactMatrix.identity(2):
            raise ValueError("matrix is not exactly unitary")
        return super().__new__(cls, matrix)

    @staticmethod
    def from_params(alpha_cs, n, theta_cs) -> "U2Element":
        """exp(i alpha/2 + i n.tau theta/2) for exactly representable data.

        alpha_cs and theta_cs are (cos, sin) pairs of the half angles;
        n is a rational unit three-vector.
        """
        ca, sa = _check_pythagorean(*alpha_cs)
        ct, st = _check_pythagorean(*theta_cs)
        n = tuple(as_fraction(c) for c in n)
        if sum(c * c for c in n) != 1:
            raise ValueError("n must be a rational unit vector")
        ntau = ExactMatrix.zeros(2)
        for i in (1, 2, 3):
            if n[i - 1]:
                ntau = ntau + pauli()[i] * GaussianRational(n[i - 1])
        rot = ExactMatrix.identity(2) * GaussianRational(ct) + ntau * GaussianRational(0, st)
        phase = GaussianRational(ca, sa)
        return U2Element(rot * phase)

    @staticmethod
    def dual_rotation(theta_cs) -> "U2Element":
        """The element mixing the two field-strength components: a real rotation."""
        return U2Element.from_params((1, 0), (0, 1, 0), theta_cs)

    def compose(self, other: "U2Element") -> "U2Element":
        return U2Element(self.matrix @ other.matrix)

    def conjugate_charge(self, m: ExactMatrix) -> ExactMatrix:
        """Coefficient matrix of the charge after the mode transformation."""
        return self.matrix.dagger() @ m @ self.matrix

    def adjoint_rotation(self) -> ExactMatrix:
        """3x3 rotation R with U^+ tau_i U = sum_j R[i][j] tau_j.

        R[i][j] is the trace pairing tr(M_i tau_j) / 2 of M_i = U^+ tau_i U:
        one product of the three M_i, flattened row-major into rows, with
        `_trace_pairing`.  The coefficients are exact and, for genuine
        group elements, real.
        """
        m = assemble(3, 4, ((self.conjugate_charge(pauli()[i]),
                             lambda ab, r=i - 1: (r, 2 * ab[0] + ab[1])) for i in (1, 2, 3)))
        return m @ _trace_pairing()


@lru_cache(maxsize=None)
def _trace_pairing():
    """Column j holds tau_j^T / 2 row-major: a flattened M times it gives tr(M tau_j) / 2."""
    return mat_columns([pauli()[j].transpose() * Fraction(1, 2) for j in (1, 2, 3)])


def stokes_expectations(s: FockPolyState, tables=None):
    """<s|Q s>/<s|s> for the charge Q of each table: (J0, J1, J2, J3) by default."""
    if any(k[2] or k[3] for k in s.coeffs):
        raise ValueError("state occupies non-transverse modes")
    norm = inner_product(s, s)
    if not norm:
        raise ValueError("zero-norm state")
    out = []
    for t in stokes_tables() if tables is None else tables:
        val = inner_product(s, BilinearOperator.from_table(t).apply(s)) / norm
        if val.im:
            raise AssertionError("charge expectation should be real")
        out.append(val.re)
    return tuple(out)


def angle_sum(cs1, cs2):
    """(cos, sin) of the sum of two angles given exactly."""
    c1, s1 = _check_pythagorean(*cs1)
    c2, s2 = _check_pythagorean(*cs2)
    return (c1 * c2 - s1 * s2, s1 * c2 + c1 * s2)
