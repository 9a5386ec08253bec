"""Exact arithmetic kernel: Gaussian-rational scalars, matrices, coefficient stores.

Every identity checked by this package reduces to exact equality over
Q(i), the field of complex numbers with rational real and imaginary
parts.  Scalars are `GaussianRational` pairs of Fractions.  Matrices
are sparse and fraction-free: an `ExactMatrix` stores only its nonzero
entries, each as a Gaussian-integer numerator, over one denominator
shared by the whole matrix, and is kept in lowest terms.  Products,
sums, scalar multiples and elimination (as in Bareiss, Math. Comp. 22,
1968) thus run on Python ints, and a Fraction is built only when an
entry is read out as a scalar.  `_ExactCoefficients` is the same store
keyed by monomials or index pairs instead of matrix positions; the Fock
states, the ladder bilinears and the classical quadratic observables
are built on it.
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

    def __init__(self, re=0, im=0):
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

    def __sub__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(o.re - self.re, o.im - self.im)

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

    def __rtruediv__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational._raw(self.re, -self.im)

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

    @staticmethod
    def from_strings(pair):
        return GaussianRational._raw(as_fraction(pair[0]), as_fraction(pair[1]))

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


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions, or 'num/den' strings."""
    return GaussianRational(as_fraction(re), as_fraction(im))


_ZZ = (0, 0)


def _as_scalar(x) -> GaussianRational:
    s = GaussianRational._coerce(x)
    return s if s is not None else GaussianRational(x)


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


def _integer_vector(v):
    """([(a, b), ...], d): the scalars of v as Gaussian integers over one d > 0."""
    parts = [_split(_as_scalar(x)) for x in v]
    den = 1
    for _, _, d in parts:
        den = math.lcm(den, d)
    return [(a * (den // d), b * (den // d)) for a, b, d in parts], den


def _pruned(row):
    """A row without the entries that cancelled to zero."""
    if _ZZ in row.values():
        return {j: e for j, e in row.items() if e != _ZZ}
    return row


def _content(den, rows):
    """The gcd of den and every numerator component in the dicts `rows`."""
    g = den
    for row in rows:
        if g == 1:
            return 1
        for a, b in row.values():
            g = math.gcd(g, a, b)
            if g == 1:
                return 1
    return g


def _divided(row, g):
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


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
    row = ra if fa == 1 else {j: (a * fa, b * fa) for j, (a, b) in ra.items()}
    if not rb:
        return row
    if row is ra:
        row = dict(ra)
    for j, (c, d) in rb.items():
        e = row.get(j)
        row[j] = (c * fb, d * fb) if e is None else (e[0] + c * fb, e[1] + d * fb)
    return _pruned(row)


def _times(row, x, y):
    """The numerator dict row * (x + y*i); nonzero x + y*i keeps every entry nonzero."""
    if y:
        return {j: (a * x - b * y, a * y + b * x) for j, (a, b) in row.items()}
    return {j: (a * x, b * x) for j, (a, b) in row.items()}


def _wrap(rows, cols, r, den):
    m = object.__new__(ExactMatrix)
    m.rows = rows
    m.cols = cols
    m._r = r
    m._den = den
    return m


def _reduced(rows, cols, r, den):
    """The matrix with numerator rows r over den > 0, in lowest terms."""
    g = _content(den, r)
    if g != 1:
        den //= g
        r = tuple(_divided(row, g) for row in r)
    return _wrap(rows, cols, r, den)


def _lowest(c, den):
    """(c, den) divided through by their common gcd."""
    if den == 1:
        return c, 1
    g = _content(den, (c,))
    if g == 1:
        return c, den
    return _divided(c, g), den // g


class _ExactCoefficients:
    """Coefficients stored as `ExactMatrix` stores its entries.

    `_c` maps a key to its Gaussian-integer numerator (re, im) and `_den`
    is the positive denominator they share, in lowest terms (the zero
    object has denominator 1), so equal objects are stored alike.  Sums,
    differences and scalar multiples run on ints; subclasses fix the keys
    and add their own products.
    """

    __slots__ = ("_c", "_den")

    def _store(self, coeffs, key):
        """Hold the exact scalars of the mapping coeffs, each under key(its key)."""
        keys, values = [], []
        for k, v in (coeffs or {}).items():
            v = GaussianRational._coerce(v)
            if v is None:
                raise TypeError("coefficients must be exact scalars")
            keys.append(key(k))
            values.append(v)
        nums, den = _integer_vector(values)
        c = {}
        for k, (a, b) in zip(keys, nums):
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
    __rmul__ = scale

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


class ExactMatrix:
    """Matrix over Q(i): Gaussian-integer numerators over one shared denominator.

    Only nonzero entries are stored.  Row i is a dict mapping a column j
    to the numerator (re, im) of entry (i, j), a pair of Python ints, and
    all entries share the positive denominator `_den`.  Every matrix is
    kept in lowest terms (the gcd of `_den` and all numerators is 1, and
    the zero matrix has denominator 1), so equal matrices are stored
    alike.  Matrices are immutable: a row dict is never changed once a
    matrix holds it, so matrices may share rows.
    """

    __slots__ = ("rows", "cols", "_r", "_den")

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and column")
        if any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        m = ExactMatrix.sparse(len(grid), len(grid[0]),
                               (((i, j), e) for i, row in enumerate(grid)
                                for j, e in enumerate(row)))
        self.rows, self.cols, self._r, self._den = m.rows, m.cols, m._r, m._den

    @staticmethod
    def sparse(rows, cols, entries):
        """Matrix of shape (rows, cols) from ((i, j), value) pairs of exact scalars.

        Positions not named are zero; values at a repeated position add up.
        """
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        entries = list(entries)
        for (i, j), _ in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
        nums, den = _integer_vector(v for _, v in entries)
        r = [None] * rows
        for ((i, j), _), (a, b) in zip(entries, nums):
            if a or b:
                row = r[i]
                if row is None:
                    row = r[i] = {}
                e = row.get(j)
                row[j] = (a, b) if e is None else (e[0] + a, e[1] + b)
        return _reduced(rows, cols, tuple({} if row is None else _pruned(row) for row in r), den)

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return ExactMatrix.sparse(rows, cols, ())

    @staticmethod
    def identity(n):
        if n < 1:
            raise ValueError("matrix needs at least one row and column")
        return _wrap(n, n, tuple({i: (1, 0)} for i in range(n)), 1)

    @staticmethod
    def unit(rows, cols, i, j, scale=GR_ONE):
        """Matrix with a single entry `scale` at (i, j)."""
        return ExactMatrix.sparse(rows, cols, (((i, j), scale),))

    def __getitem__(self, ij):
        """Entry (i, j); an absent entry is the shared GR_ZERO.

        Sparse Gram checks read about a million absent entries, so that
        path stays as short as the dense tuple lookup it replaced: it
        checks only the upper column bound, and a negative column index,
        which this class does not support, reads as zero.
        """
        i, j = ij
        row = self._r[i]
        if j in row:
            e = row[j]
            return _scalar(e[0], e[1], self._den)
        if j < self.cols:
            return GR_ZERO
        raise IndexError(f"column {j} outside a matrix with {self.cols} columns")

    def _dense(self, row):
        out = [GR_ZERO] * self.cols
        den = self._den
        for j, (a, b) in row.items():
            out[j] = _scalar(a, b, den)
        return tuple(out)

    def row(self, i):
        return self._dense(self._r[i])

    def row_entries(self, i):
        """Row i's nonzero entries as (column, value) pairs, by column."""
        den = self._den
        return [(j, _scalar(a, b, den)) for j, (a, b) in sorted(self._r[i].items())]

    def column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a matrix with {self.cols} columns")
        den = self._den
        out = []
        for row in self._r:
            e = row.get(j)
            out.append(GR_ZERO if e is None else _scalar(e[0], e[1], den))
        return tuple(out)

    @property
    def _m(self):
        """Dense rows of GaussianRational entries, built on each access.

        The package itself never reads this; the benchmark tracer
        (perfbench/tracer.py) reads it to measure coefficient sizes.
        """
        return tuple(self._dense(row) for row in self._r)

    def _combine(self, other, sign):
        self._check_same_shape(other)
        den, fa, fb = _common_scale(self._den, other._den, sign)
        out = tuple(_axpy(ra, fa, rb, fb) for ra, rb in zip(self._r, other._r))
        return _reduced(self.rows, self.cols, out, den)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return _wrap(self.rows, self.cols,
                     tuple({j: (-a, -b) for j, (a, b) in row.items()} for row in self._r),
                     self._den)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        brows = other._r
        out = []
        for arow in self._r:
            if not arow:
                out.append(arow)
                continue
            acc = {}
            for t, (a, b) in arow.items():
                for j, (c, d) in brows[t].items():
                    e = acc.get(j)
                    if e is None:
                        acc[j] = (a * c - b * d, a * d + b * c)
                    else:
                        acc[j] = (e[0] + a * c - b * d, e[1] + a * d + b * c)
            out.append(_pruned(acc))
        return _reduced(self.rows, other.cols, tuple(out), self._den * other._den)

    def _scaled(self, x, y, den):
        """self * (x + y*i) / den, for integers x, y (not both zero) and den > 0."""
        return _reduced(self.rows, self.cols, tuple(_times(row, x, y) for row in self._r),
                        self._den * den)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self @ other
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        x, y, d = _split(s)
        if not (x or y):
            return ExactMatrix.zeros(self.rows, self.cols)
        return self._scaled(x, y, d)

    def __rmul__(self, other):
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        return self * s

    def __truediv__(self, other):
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        x, y, d = _split(s)
        if not (x or y):
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not y:
            # d / x, with the sign moved into the numerator
            return self._scaled(d if x > 0 else -d, 0, abs(x))
        # d / (x + y i) = d (x - y i) / (x^2 + y^2)
        return self._scaled(d * x, -d * y, x * x + y * y)

    def _flipped(self, conjugate):
        out = tuple({} for _ in range(self.cols))
        for i, row in enumerate(self._r):
            for j, (a, b) in row.items():
                out[j][i] = (a, -b) if conjugate else (a, b)
        return _wrap(self.cols, self.rows, out, self._den)

    def transpose(self):
        return self._flipped(False)

    def dagger(self):
        """Conjugate transpose."""
        return self._flipped(True)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        a = b = 0
        for i, row in enumerate(self._r):
            e = row.get(i)
            if e is not None:
                a += e[0]
                b += e[1]
        return _scalar(a, b, self._den)

    def is_zero(self):
        return not any(self._r)

    def is_square(self):
        return self.rows == self.cols

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._r == other._r)

    def __hash__(self):
        return hash((self.rows, self.cols, self._den,
                     tuple(frozenset(row.items()) for row in self._r)))

    def to_json_dict(self):
        """Wire format: row-major entries, each an exact [re, im] string pair.

        All zero entries share one ["0/1", "0/1"] list, which keeps large
        sparse dumps small; treat the result as read-only.
        """
        den = self._den
        zero = ["0/1", "0/1"]
        entries = []
        for row in self._r:
            for j in range(self.cols):
                e = row.get(j)
                entries.append(zero if e is None
                               else list(_scalar(e[0], e[1], den).as_strings()))
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @staticmethod
    def from_json_dict(d):
        rows, cols = d["rows"], d["cols"]
        flat = [GaussianRational.from_strings(p) for p in d["entries"]]
        if len(flat) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        return ExactMatrix.sparse(rows, cols, (((k // cols, k % cols), e)
                                               for k, e in enumerate(flat)))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def mat_commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """AB - BA, exactly."""
    if not a.is_square() or a.shape != b.shape:
        raise ValueError("commutator needs square matrices of equal dimension")
    return a @ b - b @ a


def mat_rank(a: ExactMatrix) -> int:
    """Rank by fraction-free (Bareiss) elimination over Gaussian integers.

    The shared denominator leaves the rank unchanged, so elimination runs
    on the numerators, and every intermediate value is an exact Gaussian
    integer: each update (x * piv - y * z) / prev divides exactly.
    """
    rows, cols = a.rows, a.cols
    grid = [[row.get(j, _ZZ) for j in range(cols)] for row in a._r]
    pr, pi = 1, 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv_row = next((i for i in range(r, rows) if grid[i][c] != _ZZ), None)
        if piv_row is None:
            continue
        grid[r], grid[piv_row] = grid[piv_row], grid[r]
        top = grid[r]
        xr, xi = top[c]
        n = pr * pr + pi * pi
        for i in range(r + 1, rows):
            cur = grid[i]
            yr, yi = cur[c]
            for j in range(c + 1, cols):
                ar, ai = cur[j]
                zr, zi = top[j]
                tr = ar * xr - ai * xi - yr * zr + yi * zi
                ti = ar * xi + ai * xr - yr * zi - yi * zr
                qr, rr = divmod(tr * pr + ti * pi, n)
                qi, ri = divmod(ti * pr - tr * pi, n)
                if rr or ri:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                cur[j] = (qr, qi)
            cur[c] = _ZZ
        pr, pi = xr, xi
        r += 1
    return r


def minimal_poly_check(a: ExactMatrix, roots) -> bool:
    """True iff the product of (A - r*I) over the given roots vanishes."""
    if not a.is_square():
        raise ValueError("minimal polynomial check needs a square matrix")
    ident = ExactMatrix.identity(a.rows)
    prod = ident
    for r in roots:
        s = GaussianRational._coerce(r)
        if s is None:
            raise TypeError("roots must be exact scalars")
        prod = prod @ (a - ident * s)
    return prod.is_zero()


def mat_inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination; raises if singular."""
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    left = [list(a.row(i)) for i in range(n)]
    right = [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if left[i][col]:
                piv = i
                break
        if piv is None:
            raise ArithmeticError("matrix is singular")
        left[col], left[piv] = left[piv], left[col]
        right[col], right[piv] = right[piv], right[col]
        inv = GR_ONE / left[col][col]
        left[col] = [e * inv for e in left[col]]
        right[col] = [e * inv for e in right[col]]
        for i in range(n):
            if i == col:
                continue
            f = left[i][col]
            if f:
                left[i] = [x - f * y for x, y in zip(left[i], left[col])]
                right[i] = [x - f * y for x, y in zip(right[i], right[col])]
    return ExactMatrix(right)


def vec_dagger(v):
    """Conjugate of a vector (for forming bras from kets)."""
    return tuple(e.conjugate() for e in v)


def vec_dot(u, v):
    """Plain bilinear dot product, no conjugation."""
    s = GR_ZERO
    for a, b in zip(u, v):
        s = s + a * b
    return s


def mat_vec(m: ExactMatrix, v):
    if m.cols != len(v):
        raise ValueError("dimension mismatch")
    vn, vd = _integer_vector(v)
    den = m._den * vd
    out = []
    for row in m._r:
        sa = sb = 0
        for j, (a, b) in row.items():
            c, d = vn[j]
            sa += a * c - b * d
            sb += a * d + b * c
        out.append(_scalar(sa, sb, den))
    return tuple(out)


def vec_mat(v, m: ExactMatrix):
    if m.rows != len(v):
        raise ValueError("dimension mismatch")
    vn, vd = _integer_vector(v)
    acc = {}
    for (c, d), row in zip(vn, m._r):
        if not (c or d):
            continue
        for j, (a, b) in row.items():
            sa, sb = acc.get(j, _ZZ)
            acc[j] = (sa + a * c - b * d, sb + a * d + b * c)
    den = m._den * vd
    return tuple(_scalar(*acc.get(j, _ZZ), den) for j in range(m.cols))


def vec_outer(u, v) -> ExactMatrix:
    """Column u times row v."""
    un, ud = _integer_vector(u)
    vn, vd = _integer_vector(v)
    row_of_v = [(j, c, d) for j, (c, d) in enumerate(vn) if c or d]
    r = tuple({j: (a * c - b * d, a * d + b * c) for j, c, d in row_of_v} if a or b else {}
              for a, b in un)
    return _reduced(len(un), len(vn), r, ud * vd)


def vec_scale(v, s):
    return tuple(e * s for e in v)
