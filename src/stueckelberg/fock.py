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

Each operator kind has one action rule, a loop over (monomial, payload)
pairs that yields each monomial's image and integer factor: the sign
table, the index shift and the factor n of an action appear there and
nowhere else (`_ladder_images` for creation and annihilation,
`_bilinear_images` for an elementary bilinear a+_i a_j).  `apply_ladder`
and `BilinearOperator.apply` run it on a state's numerators;
`ladder_matrix` and `BilinearOperator.matrix` run it once over a list of
basis monomials and return the operator as a sparse `ExactMatrix`,
column c holding the image of the c-th monomial in the row order of a
second list.  A claim about every basis state is then one matrix
equation.

The sign table has one other reader: a bilinear is also its 4x4
coefficient table (`BilinearOperator.table` and `from_table`), and the
commutator of two is the table product A S B - B S A, with S the
diagonal of the scheme's annihilation signs; `commutator_tables` takes
every pair of a list in one stacked product.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import (GR_I, GR_ONE, ExactMatrix, GaussianRational, _ExactCoefficients,
                    _lowest, _pruned, _scalar, as_fraction, mat_commutators)

METRIC_SIGNATURE = (1, 1, 1, -1)

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

    def __init__(self, coeffs, truncation, scheme):
        self._frame(truncation, scheme)
        self._store(coeffs.items(), self._occupation)

    def _frame(self, truncation, scheme):
        if scheme not in (1, 2):
            raise ValueError("scheme must be 1 or 2")
        self.truncation = truncation
        self.scheme = scheme

    def _occupation(self, k):
        k = tuple(map(int, k))
        if len(k) != 4 or min(k) < 0:
            raise ValueError(f"bad occupation tuple {k}")
        if sum(k) > self.truncation:
            raise TruncationOverflowError(
                f"monomial {k} exceeds truncation {self.truncation}")
        return k

    @staticmethod
    def vacuum(truncation, scheme):
        return FockPolyState({(0, 0, 0, 0): GR_ONE}, truncation, scheme)

    @staticmethod
    def basis_state(n, truncation, scheme):
        """The monomial n with coefficient 1."""
        s = object.__new__(FockPolyState)
        s._frame(truncation, scheme)
        s._c, s._den = {s._occupation(n): (1, 0)}, 1
        return s

    def _check_compatible(self, other):
        if self.scheme != other.scheme:
            raise SchemeMismatchError("cannot combine states from different schemes")
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")

    def _with(self, c, den):
        out = _SchemeCoefficients._with(self, c, den)
        out.truncation = self.truncation
        return out


def _ladder_images(op: LadderOp, scheme: int, truncation: int, items):
    """The action rule of one ladder operator on (monomial, payload) pairs.

    Yields (image, factor, payload) for each monomial the operator does
    not kill.  Creation multiplies by the mode's symbol (factor 1) and
    raises past the cutoff; annihilation differentiates: factor the
    scheme's sign for the mode times the occupation n, and monomials
    with n = 0 are killed.  Distinct monomials have distinct images.
    """
    m = op.mode - 1
    if op.direction == "create":
        for k, p in items:
            if sum(k) + 1 > truncation:
                raise TruncationOverflowError(
                    f"creation on degree-{sum(k)} monomial exceeds truncation {truncation}")
            nk = list(k)
            nk[m] += 1
            yield tuple(nk), 1, p
    else:
        sign = _ANNIHILATION_SIGNS[scheme][m]
        for k, p in items:
            n = k[m]
            if n:
                nk = list(k)
                nk[m] -= 1
                yield tuple(nk), sign * n, p


def _bilinear_images(i: int, j: int, scheme: int, items):
    """The action rule of the elementary bilinear a+_i a_j on (monomial, payload) pairs.

    Yields (image, factor, payload) for each monomial with n = n_j > 0:
    one quantum moves from mode j to mode i, with the factor the
    scheme's sign for mode j times n.
    """
    sign = _ANNIHILATION_SIGNS[scheme][j - 1]
    i -= 1
    j -= 1
    for k, p in items:
        n = k[j]
        if n:
            if i == j:
                yield k, sign * n, p
            else:
                nk = list(k)
                nk[j] -= 1
                nk[i] += 1
                yield tuple(nk), sign * n, p


def _image_matrix(cols, rows, parts, den):
    """ExactMatrix, len(rows) x len(cols), of a sum of elementary operators.

    parts yields (images, (cr, ci)): the (image, factor, column) triples
    of one elementary operator on the monomials cols, and its
    Gaussian-integer coefficient; den is the denominator they share.
    An image outside rows that does not cancel raises ValueError.
    """
    index = {k: r for r, k in enumerate(rows)}
    out, missed = {}, False
    for images, (cr, ci) in parts:
        for nk, f, c in images:
            r = index.get(nk)
            if r is None:  # keyed by the monomial itself: an error unless it cancels
                r = missed = nk
            rc = (r, c)
            e = out.get(rc)
            out[rc] = (cr * f, ci * f) if e is None else (e[0] + cr * f, e[1] + ci * f)
    out = _pruned(out)
    for nk, c in out if missed else ():
        if type(nk) is tuple:
            raise ValueError(f"image {nk} of monomial {cols[c]} is outside the row set")
    return ExactMatrix._of(len(rows), len(cols), *_lowest(out, den))


def apply_ladder(op: LadderOp, s: FockPolyState) -> FockPolyState:
    """Apply one ladder operator; creation past the cutoff is an error."""
    out = {nk: (a * f, b * f)
           for nk, f, (a, b) in _ladder_images(op, s.scheme, s.truncation, s._c.items())}
    return s._with(*_lowest(out, s._den))


def ladder_matrix(op: LadderOp, cols, rows, truncation: int) -> ExactMatrix:
    """`apply_ladder` as a matrix from the span of the monomials cols into that of rows.

    Column c is the image of cols[c] at this truncation in scheme 2, read
    in the order of rows.  Creation past the cutoff raises
    TruncationOverflowError and an image outside rows ValueError.
    """
    columns = list(zip(cols, range(len(cols))))
    images = _ladder_images(op, 2, truncation, columns)
    return _image_matrix(cols, rows, [(images, (1, 0))], 1)


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


def normalized_gram(truncation: int, scheme: int) -> tuple:
    """(basis, ExactMatrix): Gram matrix of the normalised monomial basis.

    Normalisation by the square roots of factorials happens only as the
    squared factor 1/n!, so the matrix is exact; the diagonal is +-1.
    Distinct monomials are orthogonal, so only the diagonal is computed.
    """
    basis = monomial_basis(truncation)
    entries, den = [], 1
    for a in basis:
        s = FockPolyState.basis_state(a, truncation, scheme)
        re, im, d = _overlap(s, s)
        d *= _factorial_weight(a)
        g = math.gcd(re, im, d)
        entries.append((re // g, im // g, d // g))
        den = math.lcm(den, d // g)
    c = {(i, i): (re * (den // d), im * (den // d))
         for i, (re, im, d) in enumerate(entries) if re or im}
    return basis, ExactMatrix._of(len(basis), len(basis), *_lowest(c, den))


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
        state = s._c.items()
        out = {}
        for (i, j), (cr, ci) in self._c.items():
            for nk, f, (a, b) in _bilinear_images(i, j, s.scheme, state):
                x = (a * cr - b * ci) * f
                y = (a * ci + b * cr) * f
                e = out.get(nk)
                out[nk] = (x, y) if e is None else (e[0] + x, e[1] + y)
        return s._with(*_lowest(_pruned(out), s._den * self._den))

    def matrix(self, cols, rows) -> ExactMatrix:
        """`apply` as a matrix from the span of the monomials cols into that of rows.

        Column c is the image of cols[c], read in the order of rows; an
        image outside rows raises ValueError.
        """
        columns = list(zip(cols, range(len(cols))))
        return _image_matrix(cols, rows, ((_bilinear_images(i, j, self.scheme, columns), e)
                                          for (i, j), e in self._c.items()), self._den)

    def table(self) -> ExactMatrix:
        """The 4x4 coefficient table: entry (i - 1, j - 1) is the coefficient of a+_i a_j."""
        return ExactMatrix._of(4, 4, {(i - 1, j - 1): e for (i, j), e in self._c.items()},
                               self._den)

    @staticmethod
    def from_table(t: ExactMatrix, scheme: int = 2) -> "BilinearOperator":
        """The bilinear whose coefficient table is t, of at most 4 rows and columns.

        Entry (i, j) of t is the coefficient of a+_(i+1) a_(j+1), so a
        smaller table acts on the first modes only.
        """
        op = object.__new__(BilinearOperator)
        op.scheme, op._den = scheme, t._den
        op._c = {(i + 1, j + 1): e for (i, j), e in t._c.items()}
        return op

    def commutator(self, other: "BilinearOperator") -> "BilinearOperator":
        """Exact operator commutator: the bilinear with table A S B - B S A.

        A and B are the two tables and S the diagonal of the scheme's
        annihilation signs, since [a+_i a_j, a+_k a_l] is
        s_j d_jk a+_i a_l - s_i d_li a+_k a_j (the Jordan-Schwinger map).
        """
        self._check_compatible(other)
        a, b = self.table(), other.table()
        return BilinearOperator.from_table(
            a @ _signed_rows(b, self.scheme) - b @ _signed_rows(a, self.scheme), self.scheme)


def _signed_rows(t: ExactMatrix, scheme: int) -> ExactMatrix:
    """S T for the diagonal S of the scheme's annihilation signs: row i times s[i]."""
    s = _ANNIHILATION_SIGNS[scheme]
    return t._with({(i, j): (x * s[i], y * s[i]) for (i, j), (x, y) in t._c.items()}, t._den)


def commutator_tables(ops) -> ExactMatrix:
    """The tables of [A_i, A_j] for every pair i < j of one scheme's bilinears, as columns.

    Column p holds the p-th pair's table as `mat_columns` lays it out,
    the pairs in lexicographic order: the tables A S B - B S A of
    `BilinearOperator.commutator`, all from one stacked product.
    """
    if len({op.scheme for op in ops}) > 1:
        raise SchemeMismatchError("operators from different schemes")
    tables = [op.table() for op in ops]
    return mat_commutators(tables, [_signed_rows(t, ops[0].scheme) for t in tables])


def covariant_ladder_phase(mu: int) -> GaussianRational:
    """Phase carried by the index-mu covariant operator in the model.

    The fourth covariant ladder pair is i times the scalar-sector pair,
    in both directions.
    """
    return GR_I if mu == 4 else GR_ONE


def energy_operator(k0, scheme: int) -> BilinearOperator:
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


def quantum_charges() -> dict:
    """The seventeen conserved bilinears in covariant ladder form, in scheme 2.

    They do not depend on the mode energy.  Only the indefinite-metric
    scheme supports them as degree-preserving operators: the role swap
    of scheme 1 would make the mixed space-time charges change the
    grading.
    """

    def bilinear(mu, nu, coeff):
        phase = covariant_ladder_phase(mu) * covariant_ladder_phase(nu)
        return BilinearOperator({(mu, nu): coeff * phase})

    charges = {}
    for mu in range(1, 5):
        for nu in range(mu + 1, 5):
            charges[("antisym", mu, nu)] = bilinear(mu, nu, GR_I) - bilinear(nu, mu, GR_I)
    total = BilinearOperator()
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


def quantize(obs, k0) -> BilinearOperator:
    """Map a classical quadratic in (q, pi) to its normal-ordered scheme-2 operator.

    The canonical variables are linear in the ladder pair of each mode
    with weights in which the square root of 2 k0 appears only squared,
    so the result is exact.  Classical products in mixed order are
    identified with the normal-ordered operator, which silently drops
    the commutator constant; that is the ordering fixed throughout.
    Raises if the observable is not a pure ladder bilinear (e.g. has
    double-creation content), since such operators leave the bilinear
    class.
    """
    k0 = as_fraction(k0)
    if not k0:
        raise ZeroDivisionError("quantisation needs a nonzero k0")
    # q_mu = (b + b+)/sqrt(2 k0): ladder sign +1; pi_mu = -i sqrt(k0/2)(b - b+):
    # ladder sign -1.  The radical prefactors only ever meet in pairs:
    #   q.q -> 1/(2 k0),  pi.pi -> -k0/2,  q.pi -> -i/2 (a monomial's q comes first),
    # that is q^2, -p^2 and -i pq over 2pq for k0 = p/q (signs flipped
    # with p, so that the denominator stays positive).
    p, q = k0.numerator, k0.denominator
    s = 1 if p > 0 else -1
    pair_factor = {(True, True): (s * q * q, 0), (False, False): (-s * p * p, 0),
                   (True, False): (0, -s * p * q)}
    den = obs._den * 2 * abs(p) * q
    create_create, annih_annih, bilinear = {}, {}, {}

    def add(table, key, x, y):
        e = table.get(key)
        table[key] = (x, y) if e is None else (e[0] + x, e[1] + y)

    for key, (a, b) in obs._c.items():
        if len(key) != 2:
            raise ValueError("only homogeneous quadratics quantise to ladder bilinears")
        i, j = key
        mu, nu = (i % 4) + 1, (j % 4) + 1
        si, sj = (1 if i < 4 else -1), (1 if j < 4 else -1)
        fr, fi = pair_factor[i < 4, j < 4]
        x, y = a * fr - b * fi, a * fi + b * fr
        pair = (min(mu, nu), max(mu, nu))
        # (b_mu + si b_mu^+)(b_nu + sj b_nu^+), classical commuting symbols;
        # the mixed product is identified with the normal-ordered operator.
        add(annih_annih, pair, x, y)
        add(bilinear, (nu, mu), x * sj, y * sj)
        add(bilinear, (mu, nu), x * si, y * si)
        add(create_create, pair, x * si * sj, y * si * sj)
    residue = {k: _scalar(x, y, den) for table in (create_create, annih_annih)
               for k, (x, y) in table.items() if x or y}
    if residue:
        raise ValueError(f"observable is not a ladder bilinear: residue {residue}")
    out = {}
    for (m, n), (x, y) in bilinear.items():
        # the product of two covariant phases is 1, i or -1
        ph = covariant_ladder_phase(m) * covariant_ladder_phase(n)
        pr, pi = ph.re.numerator, ph.im.numerator
        out[m, n] = (x * pr - y * pi, x * pi + y * pr)
    return BilinearOperator()._with(*_lowest(_pruned(out), den))


def decompose_physical(s: FockPolyState):
    """Split a scheme-2 state into its positive-norm and mode-4-excited parts."""
    if s.scheme != 2:
        raise SchemeMismatchError("the physical decomposition lives in scheme 2")
    phys = {k: v for k, v in s._c.items() if k[3] == 0}
    nonphys = {k: v for k, v in s._c.items() if k[3] != 0}
    return s._with(*_lowest(phys, s._den)), s._with(*_lowest(nonphys, s._den))
