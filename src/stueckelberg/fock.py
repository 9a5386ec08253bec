"""Truncated four-mode oscillator with an indefinite metric.

States are polynomials in four occupation symbols; the monomial with
exponents n stands for the state built by n applications of the scheme's
creation operators on its vacuum, unnormalised.  Creation multiplies by
a symbol, annihilation differentiates with a per-mode sign, so all
square-root normalisation factors appear squared in inner products and
everything stays rational.

Two vacuum schemes exist for the scalar-sector mode (mode 4):

* scheme 2 (the favoured one): daggered operators create; the metric
  sign of mode 4 is -1 and norms alternate with its occupation.
* scheme 1: the roles of the mode-4 pair are swapped, giving a positive
  inner product but an indefinite energy spectrum.

Coefficients live in the integer store of `exact._ExactCoefficients`,
the one `ExactMatrix` uses for its entries: a state maps each monomial,
and a ladder bilinear each index pair (i, j), to a Gaussian-integer
numerator (re, im) of Python ints, over one positive denominator shared
by the whole object and kept in lowest terms.  The actions, commutators
and inner products below run on those ints.  `coeffs` is a read-only
view of the coefficients as `GaussianRational`s, built on each access.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import (GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO, ExactMatrix, GaussianRational,
                    _ExactCoefficients, _lowest, _pruned, _scalar, as_fraction)

METRIC_SIGNATURE = (1, 1, 1, -1)

DEFAULT_TRUNCATION = 6

# annihilation sign of modes 1..4 per scheme: scheme 1 swaps the mode-4
# pair, which restores the standard sign
_ANNIHILATION_SIGNS = {1: (1, 1, 1, 1), 2: METRIC_SIGNATURE}


class TruncationOverflowError(ValueError):
    """Creation would push a state past the configured degree bound."""


class SchemeMismatchError(ValueError):
    """States or operators from different vacuum schemes were combined."""


class LadderOp(namedtuple("LadderOp", "mode direction")):
    """One creation or annihilation operator in the active scheme's roles.

    direction is "create" or "annihilate".
    """

    __slots__ = ()

    def __new__(cls, mode: int, direction: str):
        if mode not in (1, 2, 3, 4):
            raise ValueError("mode must be 1..4")
        if direction not in ("create", "annihilate"):
            raise ValueError("direction must be 'create' or 'annihilate'")
        return super().__new__(cls, mode, direction)


class _SchemeCoefficients(_ExactCoefficients):
    """An exact coefficient store tied to one vacuum scheme.

    Objects from different schemes never combine and never compare equal.
    """

    __slots__ = ("scheme",)

    def _with(self, c, den):
        out = _ExactCoefficients._with(self, c, den)
        out.scheme = self.scheme
        return out

    def __eq__(self, other):
        same = _ExactCoefficients.__eq__(self, other)
        return same if same is NotImplemented else same and self.scheme == other.scheme

    def __hash__(self):
        return hash((self.scheme, self._den, frozenset(self._c.items())))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.coeffs)!r}, scheme={self.scheme})"


class FockPolyState(_SchemeCoefficients):
    """Exact-coefficient polynomial state with a degree bound and a scheme.

    The keys are occupation tuples.
    """

    __slots__ = ("truncation",)

    def __init__(self, coeffs=None, truncation=DEFAULT_TRUNCATION, scheme=2):
        if scheme not in (1, 2):
            raise ValueError("scheme must be 1 or 2")
        self.truncation = truncation
        self.scheme = scheme
        self._store((coeffs or {}).items(), self._occupation)

    def _occupation(self, k):
        k = tuple(int(e) for e in k)
        if len(k) != 4 or any(e < 0 for e in k):
            raise ValueError(f"bad occupation tuple {k}")
        if sum(k) > self.truncation:
            raise TruncationOverflowError(
                f"monomial {k} exceeds truncation {self.truncation}")
        return k

    @staticmethod
    def vacuum(truncation=DEFAULT_TRUNCATION, scheme=2):
        return FockPolyState({(0, 0, 0, 0): GR_ONE}, truncation, scheme)

    @staticmethod
    def basis_state(n, truncation=DEFAULT_TRUNCATION, scheme=2):
        return FockPolyState({tuple(n): GR_ONE}, truncation, scheme)

    def _check_compatible(self, other):
        if self.scheme != other.scheme:
            raise SchemeMismatchError("cannot combine states from different schemes")
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")

    def _with(self, c, den):
        out = _SchemeCoefficients._with(self, c, den)
        out.truncation = self.truncation
        return out


def apply_ladder(op: LadderOp, s: FockPolyState) -> FockPolyState:
    """Apply one ladder operator; creation past the cutoff is an error."""
    m = op.mode - 1
    out = {}
    if op.direction == "create":
        for k, v in s._c.items():
            if sum(k) + 1 > s.truncation:
                raise TruncationOverflowError(
                    f"creation on degree-{sum(k)} monomial exceeds truncation {s.truncation}")
            nk = list(k)
            nk[m] += 1
            out[tuple(nk)] = v
        # creation maps distinct monomials to distinct ones, numerators unchanged
        return s._with(out, s._den)
    sign = _ANNIHILATION_SIGNS[s.scheme][m]
    for k, (a, b) in s._c.items():
        n = k[m]
        if n == 0:
            continue
        nk = list(k)
        nk[m] -= 1
        f = sign * n
        out[tuple(nk)] = (a * f, b * f)
    return s._with(*_lowest(out, s._den))


def _factorial_weight(k) -> int:
    w = 1
    for n in k:
        w *= math.factorial(n)
    return w


def _overlap(a: FockPolyState, b: FockPolyState):
    """Integers (re, im, den) with <a|b> == (re + im*i) / den."""
    a._check_compatible(b)
    cb = b._c
    signed = a.scheme == 2
    re = im = 0
    for k, (p, q) in a._c.items():
        e = cb.get(k)
        if e is None:
            continue
        r, t = e
        w = _factorial_weight(k)
        if signed and k[3] % 2:
            w = -w
        # conj(p + q i) (r + t i) = (p r + q t) + (p t - q r) i
        re += (p * r + q * t) * w
        im += (p * t - q * r) * w
    return re, im, a._den * b._den


def inner_product(a: FockPolyState, b: FockPolyState) -> GaussianRational:
    """Sesquilinear form fixed by the scheme; conjugates the first argument.

    Monomial overlap is diagonal and carries the factorial weight with
    the scheme's metric sign: (-1) to the mode-4 occupation in scheme 2,
    positive in scheme 1.
    """
    return _scalar(*_overlap(a, b))


def normalized_gram(truncation: int, scheme: int = 2) -> tuple:
    """(basis, ExactMatrix): Gram matrix of the normalised monomial basis.

    Normalisation by the square roots of factorials happens only as the
    squared factor 1/n!, so the matrix is exact; the diagonal is +-1.
    Distinct monomials are orthogonal, so only the diagonal is computed.
    """
    basis = monomial_basis(truncation)
    diagonal = []
    for i, a in enumerate(basis):
        s = FockPolyState.basis_state(a, truncation, scheme)
        re, im, den = _overlap(s, s)
        diagonal.append(((i, i), _scalar(re, im, den * _factorial_weight(a))))
    return basis, ExactMatrix.sparse(len(basis), len(basis), diagonal)


def monomial_basis(truncation: int) -> list:
    """All occupation tuples with total degree <= truncation, in stable order."""
    out = []
    for d in range(truncation + 1):
        for n1 in range(d + 1):
            for n2 in range(d - n1 + 1):
                for n3 in range(d - n1 - n2 + 1):
                    out.append((n1, n2, n3, d - n1 - n2 - n3))
    return out


class BilinearOperator(_SchemeCoefficients):
    """Normal-ordered ladder bilinear: sum of c[i, j] * create_i annihilate_j.

    The indices refer to the polynomial model's elementary operators
    (multiplication and signed derivative), with the scheme's signs and
    any phase factors already folded into the coefficients.  These
    operators preserve total degree, so truncation never bites.  The
    keys are the index pairs (i, j).
    """

    __slots__ = ()

    def __init__(self, coeffs=None, scheme=2):
        self.scheme = scheme
        self._store((coeffs or {}).items(), tuple)

    def _check_compatible(self, other):
        if self.scheme != other.scheme:
            raise SchemeMismatchError("operators from different schemes")

    def apply(self, s: FockPolyState) -> FockPolyState:
        if s.scheme != self.scheme:
            raise SchemeMismatchError("operator and state schemes differ")
        signs = _ANNIHILATION_SIGNS[s.scheme]
        state = s._c.items()
        out = {}
        for (i, j), (cr, ci) in self._c.items():
            i -= 1
            j -= 1
            sign = signs[j]
            for k, (a, b) in state:
                n = k[j]
                if n == 0:
                    continue
                if i == j:
                    nk = k
                else:
                    nk = list(k)
                    nk[j] -= 1
                    nk[i] += 1
                    nk = tuple(nk)
                f = sign * n
                x = (a * cr - b * ci) * f
                y = (a * ci + b * cr) * f
                e = out.get(nk)
                out[nk] = (x, y) if e is None else (e[0] + x, e[1] + y)
        return s._with(*_lowest(_pruned(out), s._den * self._den))

    def commutator(self, other: "BilinearOperator") -> "BilinearOperator":
        """Exact operator commutator; bilinears close among themselves."""
        self._check_compatible(other)
        signs = _ANNIHILATION_SIGNS[self.scheme]
        out = {}

        def add(key, x, y):
            e = out.get(key)
            out[key] = (x, y) if e is None else (e[0] + x, e[1] + y)

        for (i, j), (ar, ai) in self._c.items():
            for (k, l), (br, bi) in other._c.items():
                if j != k and l != i:
                    continue
                xr, xi = ar * br - ai * bi, ar * bi + ai * br
                if j == k:
                    sj = signs[j - 1]
                    add((i, l), xr * sj, xi * sj)
                if l == i:
                    sl = signs[l - 1]
                    add((k, j), -xr * sl, -xi * sl)
        return self._with(*_lowest(_pruned(out), self._den * other._den))


def covariant_ladder_phase(mu: int) -> GaussianRational:
    """Phase carried by the index-mu covariant operator in the model.

    The fourth covariant ladder pair is i times the scalar-sector pair,
    in both directions.
    """
    return GR_I if mu == 4 else GR_ONE


def energy_operator(k0, scheme: int = 2) -> BilinearOperator:
    """P0 = k0 (sum_a b_a^+ b_a - b_0^+ b_0), normal-ordered for the scheme.

    In scheme 2 the expression is already normal ordered.  In scheme 1
    the scalar-sector term is anti-normal; one swap produces the normal
    form plus a constant, which is dropped and reported in the docs.
    """
    k0 = as_fraction(k0)
    terms = {}
    for a in (1, 2, 3):
        terms[(a, a)] = GaussianRational(k0)
    # scheme 2: -b0+ b0 is already normal ordered; the model annihilator
    # carries the metric sign, so the action is +k0 N4.
    # scheme 1: -b0+ b0 = -b0 b0+ - 1; after dropping the constant the
    # normal form is the same model bilinear, now acting as -k0 N4.
    terms[(4, 4)] = GaussianRational(-k0)
    return BilinearOperator(terms, scheme)


def quantum_charges(k0, scheme: int = 2) -> dict:
    """The seventeen conserved bilinears in covariant ladder form.

    Only the indefinite-metric scheme supports these as degree-preserving
    operators; the role swap of scheme 1 would make the mixed space-time
    charges change the grading, so they are restricted to scheme 2.
    """
    if scheme != 2:
        raise SchemeMismatchError("quantum charges require the indefinite-metric scheme")
    del k0  # the charges are energy-independent; kept for interface symmetry

    def bilinear(mu, nu, coeff):
        phase = covariant_ladder_phase(mu) * covariant_ladder_phase(nu)
        return BilinearOperator({(mu, nu): coeff * phase}, scheme)

    charges = {}
    for mu in range(1, 5):
        for nu in range(mu + 1, 5):
            charges[("antisym", mu, nu)] = bilinear(mu, nu, GR_I) - bilinear(nu, mu, GR_I)
    total = BilinearOperator({}, scheme)
    for al in range(1, 5):
        total = total + bilinear(al, al, GR_ONE)
    half = GaussianRational(Fraction(1, 2))
    for mu in range(1, 5):
        for nu in range(mu, 5):
            j = bilinear(mu, nu, GR_ONE) + bilinear(nu, mu, GR_ONE)
            if mu == nu:
                j = j - total.scale(half)
            charges[("sym", mu, nu)] = j
    charges[("unit",)] = total
    return charges


def quantize(obs, k0, scheme: int = 2) -> BilinearOperator:
    """Map a classical quadratic in (q, pi) to its normal-ordered operator.

    The canonical variables are linear in the ladder pair of each mode
    with weights in which the square root of 2 k0 appears only squared,
    so the result is exact.  Classical products in mixed order are
    identified with the normal-ordered operator, which silently drops
    the commutator constant; that is the ordering fixed throughout.
    Raises if the observable is not a pure ladder bilinear (e.g. has
    double-creation content), since such operators leave the bilinear
    class.
    """
    if scheme != 2:
        raise SchemeMismatchError("quantisation targets the indefinite-metric scheme")
    k0 = as_fraction(k0)
    create_create = {}
    annih_annih = {}
    bilinear = {}

    def add(table, key, v):
        table[key] = table.get(key, GR_ZERO) + v

    # q_mu = (b + b+)/sqrt(2 k0): ladder sign +1; pi_mu = -i sqrt(k0/2)(b - b+):
    # ladder sign -1.  The radical prefactors only ever meet in pairs:
    #   q.q -> 1/(2 k0),  pi.pi -> -k0/2,  q.pi -> -i/2.
    def symbol_sign(idx):
        return GR_ONE if idx < 4 else GR_MINUS_ONE

    def pair_factor(idx_a, idx_b):
        qa, qb = idx_a < 4, idx_b < 4
        if qa and qb:
            return GaussianRational(Fraction(1, 2) / k0)
        if not qa and not qb:
            return GaussianRational(-k0 / 2)
        return GaussianRational(0, Fraction(-1, 2))

    for key, coeff in obs.coeffs.items():
        if len(key) != 2:
            raise ValueError("only homogeneous quadratics quantise to ladder bilinears")
        i, j = key
        mu, nu = (i % 4) + 1, (j % 4) + 1
        si, sj = symbol_sign(i), symbol_sign(j)
        base = coeff * pair_factor(i, j)
        # (b_mu + si b_mu^+)(b_nu + sj b_nu^+), classical commuting symbols;
        # the mixed product is identified with the normal-ordered operator.
        add(annih_annih, tuple(sorted((mu, nu))), base)
        add(bilinear, (nu, mu), base * sj)
        add(bilinear, (mu, nu), base * si)
        add(create_create, tuple(sorted((mu, nu))), base * si * sj)
    residue = {k: v for table in (create_create, annih_annih) for k, v in table.items() if v}
    if residue:
        raise ValueError(f"observable is not a ladder bilinear: residue {residue}")
    out = {}
    for (m, n), v in bilinear.items():
        add(out, (m, n), v * covariant_ladder_phase(m) * covariant_ladder_phase(n))
    return BilinearOperator(out, scheme)


def apply_covariant(mu: int, dagger: bool, s: FockPolyState) -> FockPolyState:
    """Action of the covariant ladder operator, phases included (scheme 2)."""
    if s.scheme != 2:
        raise SchemeMismatchError("covariant ladder operators live in scheme 2")
    out = apply_ladder(LadderOp(mu, "create" if dagger else "annihilate"), s)
    ph = covariant_ladder_phase(mu)
    return out if ph is GR_ONE else out.scale(ph)


def decompose_physical(s: FockPolyState):
    """Split a scheme-2 state into its positive-norm and mode-4-excited parts."""
    if s.scheme != 2:
        raise SchemeMismatchError("the physical decomposition lives in scheme 2")
    phys = {k: v for k, v in s._c.items() if k[3] == 0}
    nonphys = {k: v for k, v in s._c.items() if k[3] != 0}
    return s._with(*_lowest(phys, s._den)), s._with(*_lowest(nonphys, s._den))
