"""Exact arithmetic kernel: Gaussian-rational scalars and one integer coefficient store.

Every identity checked by this package reduces to exact equality over
Q(i), the field of complex numbers with rational real and imaginary
parts.  Scalars are `GaussianRational` pairs of Fractions.  Everything
larger is one store, `_ExactCoefficients`: a dict from a key to the
Gaussian-integer numerator (re, im) of a nonzero coefficient, over one
positive denominator shared by the whole object and kept in lowest
terms.  Sums, scalar multiples and products thus run on Python ints,
and a Fraction is built only when a coefficient is read out as a
scalar.  `ExactMatrix` is the store keyed by position (i, j); the Fock
states, the ladder bilinears and the classical quadratic observables
key it by monomial or index pair.  Rank and inverse share one
fraction-free Gauss-Jordan elimination on a matrix's numerators (after
Bareiss, Math. Comp. 22, 1968): the rank counts its pivots, and on
[N | I] it ends at d times the inverse of N for the last pivot d, so
the inverse divides once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

_F0 = Fraction(0)
_F1 = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def fraction_str(f: Fraction) -> str:
    """Canonical 'num/den' form with positive denominator."""
    return f"{f.numerator}/{f.denominator}"


def rational_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """A complex number a + b*i with exact rational a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @staticmethod
    def _raw(re, im):
        v = object.__new__(GaussianRational)
        v.re = re
        v.im = im
        return v

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return GaussianRational._raw(Fraction(x), _F0)
        if isinstance(x, Fraction):
            return GaussianRational._raw(x, _F0)
        return None

    def __add__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b and not d:
            return GaussianRational._raw(a * c, _F0)
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, c, d = self.re, self.im, o.re, o.im
        return GaussianRational._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def is_real(self):
        return not self.im

    def as_strings(self):
        return (fraction_str(self.re), fraction_str(self.im))

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational._raw(_F0, _F0)
GR_ONE = GaussianRational._raw(_F1, _F0)
GR_I = GaussianRational._raw(_F0, _F1)
GR_MINUS_ONE = GaussianRational._raw(-_F1, _F0)


_ZZ = (0, 0)


def _split(s: GaussianRational):
    """Integers (a, b, d) with d > 0 and s == (a + b*i) / d."""
    re, im = s.re, s.im
    dr, di = re.denominator, im.denominator
    if dr == di:
        return re.numerator, im.numerator, dr
    d = math.lcm(dr, di)
    return re.numerator * (d // dr), im.numerator * (d // di), d


def _scalar(a, b, den) -> GaussianRational:
    """The Gaussian rational (a + b*i) / den, for integers a, b and den > 0."""
    if not (a or b):
        return GR_ZERO
    if den == 1:
        return GaussianRational._raw(Fraction(a), Fraction(b) if b else _F0)
    return GaussianRational._raw(Fraction(a, den), Fraction(b, den) if b else _F0)


def _pruned(c):
    """A numerator dict without the entries that cancelled to zero."""
    if _ZZ in c.values():
        return {k: e for k, e in c.items() if e != _ZZ}
    return c


def _lowest(c, den):
    """(c, den) divided through by the gcd of den and every numerator component."""
    g = den
    for a, b in c.values():
        if g == 1:
            return c, den
        g = math.gcd(g, a, b)
    if g == 1:
        return c, den
    return {k: (a // g, b // g) for k, (a, b) in c.items()}, den // g


def _common_scale(da, db, sign):
    """(den, fa, fb): den = lcm(da, db), fa = den / da and fb = sign * den / db."""
    if da == db:
        return da, 1, sign
    den = math.lcm(da, db)
    return den, den // da, sign * (den // db)


def _axpy(ra, fa, rb, fb):
    """The numerator dict fa * ra + fb * rb, without entries that cancel.

    Never changes ra or rb; returns ra itself when fa == 1 and rb is empty.
    """
    c = ra if fa == 1 else {k: (a * fa, b * fa) for k, (a, b) in ra.items()}
    if not rb:
        return c
    if c is ra:
        c = dict(ra)
    for k, (x, y) in rb.items():
        e = c.get(k)
        c[k] = (x * fb, y * fb) if e is None else (e[0] + x * fb, e[1] + y * fb)
    return _pruned(c)


def _times(c, x, y):
    """The numerator dict c * (x + y*i); nonzero x + y*i keeps every entry nonzero."""
    if y:
        return {k: (a * x - b * y, a * y + b * x) for k, (a, b) in c.items()}
    return {k: (a * x, b * x) for k, (a, b) in c.items()}


class _ExactCoefficients:
    """The one exact store: Gaussian-integer numerators over one shared denominator.

    `_c` maps a key to the numerator (re, im), a pair of Python ints, of
    a nonzero coefficient, and `_den` is the positive denominator they
    all share.  Every object is kept in lowest terms (the gcd of `_den`
    and all numerators is 1, and the zero object has denominator 1), so
    equal objects are stored alike.  Objects are immutable: a dict is
    never changed once an object holds it, so objects may share dicts.
    Sums, differences and scalar multiples run on ints; subclasses fix
    the keys (a matrix position, a monomial, an index pair) and add
    their own products.
    """

    __slots__ = ("_c", "_den")

    def _store(self, pairs, key):
        """Hold the exact scalars of the (key, value) pairs, each under key(its key).

        Values under one key add up.
        """
        parts, den = [], 1
        for k, v in pairs:
            t = type(v)
            if t is int:
                a, b, d = v, 0, 1
            elif t is Fraction:
                a, b, d = v.numerator, 0, v.denominator
            else:
                v = GaussianRational._coerce(v)
                if v is None:
                    raise TypeError("coefficients must be exact scalars")
                a, b, d = _split(v)
            parts.append((key(k), a, b, d))
            if d != den:
                den = math.lcm(den, d)
        c = {}
        for k, a, b, d in parts:
            if d != den:
                f = den // d
                a, b = a * f, b * f
            e = c.get(k)
            c[k] = (a, b) if e is None else (e[0] + a, e[1] + b)
        self._c, self._den = _lowest(_pruned(c), den)

    def _with(self, c, den):
        """An object of this kind holding (c, den), already in lowest terms."""
        out = object.__new__(type(self))
        out._c = c
        out._den = den
        return out

    @property
    def coeffs(self):
        """Read-only {key: GaussianRational}, built on each access."""
        den = self._den
        return MappingProxyType({k: _scalar(a, b, den) for k, (a, b) in self._c.items()})

    def _check_compatible(self, other):
        """Raise if other may not be added to self; any two objects of one kind may."""

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        den, fa, fb = _common_scale(self._den, other._den, sign)
        return self._with(*_lowest(_axpy(self._c, fa, other._c, fb), den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, s):
        s = GaussianRational._coerce(s)
        if s is None:
            raise TypeError("scale by exact scalars only")
        x, y, d = _split(s)
        if not (x or y):
            return self._with({}, 1)
        return self._with(*_lowest(_times(self._c, x, y), self._den * d))

    __mul__ = scale

    def __neg__(self):
        return self._with({k: (-a, -b) for k, (a, b) in self._c.items()}, self._den)

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._c == other._c

    def __hash__(self):
        return hash((self._den, frozenset(self._c.items())))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.coeffs)!r})"


class ExactMatrix(_ExactCoefficients):
    """Matrix over Q(i): the exact store keyed by position (i, j).

    Only nonzero entries are stored, each as the Gaussian-integer
    numerator of entry (i, j) over the denominator the whole matrix
    shares; `rows` and `cols` are the shape.  Sums, differences,
    negation, scalar multiples (`*` and `/` by a scalar), `is_zero`
    and equality come from the store; two matrices are equal only if
    their shapes are too.  The product accumulates each output row in
    a column-keyed dict, and `mat_rank` and `mat_inverse` eliminate on
    the numerators without fractions (`_fraction_free`).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and column")
        if any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self.rows, self.cols = len(grid), len(grid[0])
        self._store((((i, j), e) for i, row in enumerate(grid) for j, e in enumerate(row)),
                    tuple)

    @staticmethod
    def sparse(rows, cols, entries):
        """Matrix of shape (rows, cols) from ((i, j), value) pairs of exact scalars.

        Positions not named are zero; values at a repeated position add up.
        """
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        m = object.__new__(ExactMatrix)
        m.rows, m.cols = rows, cols
        m._store(entries, m._position)
        return m

    @staticmethod
    def _of(rows, cols, c, den):
        """The rows x cols matrix holding the numerators c over den, already in lowest terms."""
        out = object.__new__(ExactMatrix)
        out.rows, out.cols, out._c, out._den = rows, cols, c, den
        return out

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return ExactMatrix.sparse(rows, cols, ())

    @staticmethod
    def identity(n):
        return ExactMatrix.sparse(n, n, (((i, i), GR_ONE) for i in range(n)))

    @staticmethod
    def unit(rows, cols, i, j):
        """Matrix with a single entry 1 at (i, j)."""
        return ExactMatrix.sparse(rows, cols, (((i, j), GR_ONE),))

    def _position(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return (i, j)

    def _with(self, c, den):
        return ExactMatrix._of(self.rows, self.cols, c, den)

    def _check_compatible(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __getitem__(self, ij):
        """Entry (i, j); an absent entry is the shared GR_ZERO."""
        e = self._c.get(self._position(ij))
        return GR_ZERO if e is None else _scalar(e[0], e[1], self._den)

    def column(self, j):
        return tuple(self[i, j] for i in range(self.rows))

    @property
    def _m(self):
        """Dense rows of GaussianRational entries, built on each access.

        The package itself never reads this; the benchmark tracer
        (perfbench/tracer.py) reads it to measure coefficient sizes.
        """
        out = [[GR_ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), (a, b) in self._c.items():
            out[i][j] = _scalar(a, b, self._den)
        return tuple(map(tuple, out))

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        brows = {}
        for (t, j), e in other._c.items():
            row = brows.get(t)
            if row is None:
                brows[t] = [(j, e)]
            else:
                row.append((j, e))
        acc_rows = {}
        for (i, t), (a, b) in self._c.items():
            brow = brows.get(t)
            if brow is None:
                continue
            acc = acc_rows.get(i)
            if acc is None:
                acc = acc_rows[i] = {}
            for j, (c, d) in brow:
                e = acc.get(j)
                if e is None:
                    acc[j] = (a * c - b * d, a * d + b * c)
                else:
                    acc[j] = (e[0] + a * c - b * d, e[1] + a * d + b * c)
        c = {(i, j): e for i, acc in acc_rows.items() for j, e in acc.items() if e != _ZZ}
        return ExactMatrix._of(self.rows, other.cols, *_lowest(c, self._den * other._den))

    def __truediv__(self, s):
        return self.scale(GR_ONE / s)

    def _flipped(self, conjugate):
        c = {(j, i): (a, -b) if conjugate else (a, b) for (i, j), (a, b) in self._c.items()}
        return ExactMatrix._of(self.cols, self.rows, c, self._den)

    def transpose(self):
        return self._flipped(False)

    def dagger(self):
        """Conjugate transpose."""
        return self._flipped(True)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        a = b = 0
        for i in range(self.rows):
            e = self._c.get((i, i))
            if e is not None:
                a += e[0]
                b += e[1]
        return _scalar(a, b, self._den)

    def is_square(self):
        return self.rows == self.cols

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        same = _ExactCoefficients.__eq__(self, other)
        return same if same is NotImplemented else same and self.shape == other.shape

    def __hash__(self):
        return hash((self.shape, self._den, frozenset(self._c.items())))

    def to_json_dict(self):
        """Wire format: row-major entries, each an exact [re, im] string pair.

        All zero entries share one ["0/1", "0/1"] list, which keeps large
        sparse dumps small; treat the result as read-only.
        """
        zero = ["0/1", "0/1"]
        c, den = self._c, self._den
        entries = []
        for i in range(self.rows):
            for j in range(self.cols):
                e = c.get((i, j))
                entries.append(zero if e is None
                               else list(_scalar(e[0], e[1], den).as_strings()))
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def mat_commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """AB - BA, exactly."""
    if not a.is_square() or a.shape != b.shape:
        raise ValueError("commutator needs square matrices of equal dimension")
    return a @ b - b @ a


def assemble(rows, cols, parts) -> ExactMatrix:
    """The rows x cols matrix of placed exact stores.

    parts yields (store, place) pairs: the coefficient a store (a matrix,
    an observable, a bilinear) holds under key k is put at position
    place(k), which must lie inside the shape; no two coefficients may
    share a position.  Blocks, stacks and the columns of a table of
    stores are all one such placement.
    """
    parts = [(s._c, s._den, place) for s, place in parts]
    den = math.lcm(*(d for _, d, _ in parts))
    out = {}
    for c, d, place in parts:
        f = den // d
        out.update((place(k), (a * f, b * f)) for k, (a, b) in c.items())
    if len(out) != sum(len(c) for c, _, _ in parts):
        raise ValueError("two coefficients placed at one position")
    return ExactMatrix._of(rows, cols, *_lowest(out, den))


def block_at(r, c):
    """place for `assemble`: a matrix entry (i, j) moved to (r + i, c + j)."""
    return lambda ij: (r + ij[0], c + ij[1])


def mat_columns(mats) -> ExactMatrix:
    """The matrix whose column c holds the entries of the n x n matrix mats[c], row-major."""
    n = mats[0].cols
    return assemble(n * n, len(mats), ((m, lambda ij, c=c: (n * ij[0] + ij[1], c))
                                       for c, m in enumerate(mats)))


def mat_commutators(lefts, rights) -> ExactMatrix:
    """L_i R_j - L_j R_i for every pair i < j of n x n matrices, from one stacked product.

    The lefts one above the other times the rights side by side hold
    L_i R_j in block (i, j).  Column p of the result is the p-th pair's
    difference, laid out as by `mat_columns`, the pairs in lexicographic
    order; with rights = lefts they are the commutators.
    """
    k, n = len(lefts), lefts[0].rows
    if k < 2:
        raise ValueError("commutators need at least two matrices")
    prod = (assemble(k * n, n, ((m, block_at(n * i, 0)) for i, m in enumerate(lefts)))
            @ assemble(n, k * n, ((m, block_at(0, n * j)) for j, m in enumerate(rights))))
    # pair (i, j), i < j, is column first[i] + j
    first = [i * (2 * k - i - 3) // 2 - 1 for i in range(k)]
    out = {}
    for (r, s), (x, y) in prod._c.items():
        i, a = divmod(r, n)
        j, b = divmod(s, n)
        if i == j:
            continue
        if i < j:
            key = (n * a + b, first[i] + j)
        else:
            key, x, y = (n * a + b, first[j] + i), -x, -y
        e = out.get(key)
        out[key] = (x, y) if e is None else (e[0] + x, e[1] + y)
    return ExactMatrix._of(n * n, k * (k - 1) // 2, *_lowest(_pruned(out), prod._den))


def _numerator_rows(a: ExactMatrix):
    """Row i of a's numerators as a dict column -> (re, im), for each row i."""
    rows = [{} for _ in range(a.rows)]
    for (i, j), e in a._c.items():
        rows[i][j] = e
    return rows


def _fraction_free(rows, cols):
    """Fraction-free Gauss-Jordan elimination (after Bareiss, Math. Comp. 22, 1968), in place.

    rows are dicts column -> Gaussian-integer numerator; pivots are taken
    in the first `cols` columns.  Each pivot step replaces every other
    row by (x * row - y * pivot row) / prev, where x is the pivot, y the
    row's entry in the pivot column and prev the previous pivot; the
    division is always exact, and every pivot row's leading entry ends
    equal to the last pivot.  Returns (number of pivots, last pivot).
    """
    pr, pi = 1, 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        xr, xi = top[c]
        n = pr * pr + pi * pi
        for i in range(len(rows)):
            if i == r:
                continue
            cur = rows[i]
            yr, yi = cur.get(c, _ZZ)
            new = {}
            # where y = 0 the pivot row adds nothing: only the row's own entries change
            for j in cur.keys() | top.keys() if yr or yi else cur.keys():
                if j == c:
                    continue
                ar, ai = cur.get(j, _ZZ)
                zr, zi = top.get(j, _ZZ)
                tr = ar * xr - ai * xi - yr * zr + yi * zi
                ti = ar * xi + ai * xr - yr * zi - yi * zr
                # divide by prev = pr + pi*i: multiply by its conjugate over n
                qr, rr = divmod(tr * pr + ti * pi, n)
                qi, ri = divmod(ti * pr - tr * pi, n)
                if rr or ri:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                if qr or qi:
                    new[j] = (qr, qi)
            rows[i] = new
        pr, pi = xr, xi
        r += 1
    return r, (pr, pi)


def mat_rank(a: ExactMatrix) -> int:
    """Rank by fraction-free elimination on the Gaussian-integer numerators.

    The shared denominator leaves the rank unchanged.
    """
    return _fraction_free(_numerator_rows(a), a.cols)[0]


def mat_inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse by fraction-free Gauss-Jordan; raises ArithmeticError if singular.

    With a = N / den for the numerator matrix N, elimination on [N | I]
    ends at [d*I | d*N^-1] with d the last pivot (det N up to sign), so
    the inverse is den / d times the right-hand block.
    """
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    rows = _numerator_rows(a)
    for i, row in enumerate(rows):
        row[n + i] = (1, 0)
    rank, (dr, di) = _fraction_free(rows, n)
    if rank < n:
        raise ArithmeticError("matrix is singular")
    adj = a._with({(i, j - n): e for i, row in enumerate(rows)
                   for j, e in row.items() if j >= n}, 1)
    # den / (dr + di*i) = den * (dr - di*i) / (dr^2 + di^2)
    return adj.scale(_scalar(a._den * dr, -a._den * di, dr * dr + di * di))
