import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_helpers import gr, matrix_from_json, row
from stueckelberg.exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO,
                                GaussianRational, assemble, block_at, fraction_str,
                                mat_columns, mat_commutator, mat_commutators, mat_inverse,
                                mat_rank, rational_sqrt)
from stueckelberg.modes import QuadraticObservable, poisson_bracket
from stueckelberg.suites import _annihilates
from stueckelberg.wave import wave_matrices

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a


@given(scalars)
def test_multiplicative_inverse(a):
    if a:
        assert a * (GR_ONE / a) == GR_ONE


def test_scalar_basics():
    assert GR_I * GR_I == -GR_ONE
    assert gr("3/2", "-1/3") == GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    assert gr(2) + Fraction(1, 2) == gr("5/2")
    assert hash(gr(3)) == hash(Fraction(3))
    assert (str(gr("1/2", "1/3")), str(gr(2, -1)), str(gr(0, 1))) == ("1/2+1/3i", "2-1i", "1i")
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_string_round_trip():
    x = gr("-7/3", "22/7")
    assert gr(*x.as_strings()) == x


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def _random_matrix(rng, n, m, span=4):
    return ExactMatrix([[GaussianRational(Fraction(rng.randint(-span, span)),
                                          Fraction(rng.randint(-span, span)))
                         for _ in range(m)] for _ in range(n)])


def _dense(mat):
    return [[mat[i, j] for j in range(mat.cols)] for i in range(mat.rows)]


def _naive_rank(grid):
    """Independent oracle: plain fraction Gaussian elimination on a dense grid."""
    rows = [list(row) for row in grid]
    cols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < cols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = GR_ONE / rows[r][col]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def test_rank_against_independent_elimination():
    rng = random.Random(20240817)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, n, m)
        assert mat_rank(a) == _naive_rank(_dense(a))
    # rank-deficient ones, through k < min(n, m) inner columns: here the row
    # updates must cancel exactly, which a full-rank matrix never asks of them
    for _ in range(40):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        k = rng.randint(1, min(n, m) - 1)
        a = _random_matrix(rng, n, k) @ _random_matrix(rng, k, m)
        assert mat_rank(a) == _naive_rank(_dense(a)) <= k


def test_rank_extremes():
    assert mat_rank(ExactMatrix.identity(11)) == 11
    assert mat_rank(ExactMatrix.zeros(11)) == 0
    assert mat_rank(ExactMatrix([[GR_ONE], [gr(2)]]) @ ExactMatrix([[gr(3), gr(5)]])) == 1


def test_rank_of_product_bound():
    rng = random.Random(99)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = _random_matrix(rng, a.cols, rng.randint(1, 5))
        assert mat_rank(a @ b) <= min(mat_rank(a), mat_rank(b))


def test_commutator_and_trace():
    a = ExactMatrix([[0, 1], [0, 0]])
    b = ExactMatrix([[0, 0], [1, 0]])
    c = mat_commutator(a, b)
    assert c == ExactMatrix([[1, 0], [0, -1]])
    assert not c.trace()
    assert ExactMatrix([[GR_I, 1], [0, gr(1, 2)]]).trace() == gr(1, 3)
    with pytest.raises(ValueError):
        mat_commutator(a, ExactMatrix.identity(3))


def test_placed_stores():
    m = ExactMatrix([[1, 2], [3, GR_I]])
    assert mat_columns([m]) == ExactMatrix([[1], [2], [3], [GR_I]])
    n = ExactMatrix([[0, 1], [GR_I, 2]])
    assert mat_commutators([m, n], [m, n]) == mat_columns([mat_commutator(m, n)])
    assert assemble(2, 3, ((m, block_at(0, 1)),)) == ExactMatrix([[0, 1, 2], [0, 3, GR_I]])
    with pytest.raises(ValueError):
        assemble(2, 3, ((m, block_at(0, 0)), (m, block_at(0, 1))))


def test_minimal_poly_check():
    ident = ExactMatrix.identity(3)
    assert _annihilates(ident, [GR_ONE])
    proj = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert _annihilates(proj, [GR_ZERO, GR_ONE])
    assert not _annihilates(proj, [GR_ONE])


def test_inverse():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        if mat_rank(a) < n:
            continue
        inv = mat_inverse(a)
        assert a @ inv == ExactMatrix.identity(n)


def test_matrix_json_round_trip():
    m = ExactMatrix([[gr("1/2", "-3"), GR_ZERO], [GR_I, gr(7)]])
    d = m.to_json_dict()
    assert d["rows"] == 2 and d["cols"] == 2
    assert all(isinstance(p[0], str) and "/" in p[0] for p in d["entries"])
    assert matrix_from_json(d) == m


# -- the sparse kernel against a plain dense reference -----------------------

mixed = st.fractions(min_value=-9, max_value=9, max_denominator=12)
entries = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, mixed),
                    st.builds(GaussianRational, mixed, mixed))


def grids(rows, cols):
    """Dense grids of Gaussian rationals; about a third are zero matrices."""
    zero = [[GR_ZERO] * cols for _ in range(rows)]
    return st.one_of(st.just(zero), st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def _ref_sum(terms):
    total = GR_ZERO
    for t in terms:
        total = total + t
    return total


def _ref_matmul(a, b):
    return [[_ref_sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _ref_map(f, *grids_):
    return [[f(*xs) for xs in zip(*rows)] for rows in zip(*grids_)]


@given(st.data())
def test_kernel_matches_dense_reference(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    ga, gb, gc = data.draw(grids(n, k)), data.draw(grids(k, m)), data.draw(grids(n, k))
    s = data.draw(entries)
    a, b, c = ExactMatrix(ga), ExactMatrix(gb), ExactMatrix(gc)
    assert _dense(a) == ga

    prod = _ref_matmul(ga, gb)
    assert _dense(a @ b) == prod
    assert a @ b == ExactMatrix(prod) and hash(a @ b) == hash(ExactMatrix(prod))
    assert _dense(a + c) == _ref_map(lambda x, y: x + y, ga, gc)
    assert _dense(a - c) == _ref_map(lambda x, y: x - y, ga, gc)
    assert _dense(-a) == _ref_map(lambda x: -x, ga)
    assert _dense(a * s) == _dense(s * a) == _ref_map(lambda x: x * s, ga)
    if s:
        assert _dense(a / s) == _ref_map(lambda x: x / s, ga)
        assert (a * s) / s == a and hash((a * s) / s) == hash(a)
    assert _dense(a.dagger()) == [[GaussianRational(ga[i][j].re, -ga[i][j].im)
                                   for i in range(n)] for j in range(k)]
    assert _dense(a.transpose()) == [[ga[i][j] for i in range(n)] for j in range(k)]
    if n == k:
        assert a.trace() == _ref_sum(ga[i][i] for i in range(n))
    assert mat_rank(a) == _naive_rank(ga)
    assert a.is_zero() == all(not x for row in ga for x in row)
    assert (a - a).is_zero() and a - a == ExactMatrix.zeros(n, k)
    # the same entries in a larger shape are another matrix
    assert ExactMatrix.sparse(n + 1, k, a.coeffs.items()) != a
    if n == k:
        if mat_rank(a) == n:
            inv = mat_inverse(a)
            assert a @ inv == ExactMatrix.identity(n) and inv @ a == ExactMatrix.identity(n)
        else:
            with pytest.raises(ArithmeticError):
                mat_inverse(a)

    v = data.draw(st.lists(entries, min_size=k, max_size=k))
    u = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert _dense(a @ ExactMatrix([[x] for x in v])) == [
        [_ref_sum(x * y for x, y in zip(row, v))] for row in ga]
    assert _dense(ExactMatrix([u]) @ a) == [[_ref_sum(u[i] * ga[i][j] for i in range(n))
                                             for j in range(k)]]


def test_cancellation_gives_canonical_zero():
    row = ExactMatrix([[gr("1/2"), gr(0, "1/3")]])
    col = ExactMatrix([[gr("2/3")], [gr(0, 1)]])
    assert (row @ col).is_zero() and row @ col == ExactMatrix.zeros(1)
    half = ExactMatrix.identity(2) / 2
    assert half + half == ExactMatrix.identity(2)
    assert hash(half + half) == hash(ExactMatrix.identity(2))


def test_sparse_constructor_adds_repeated_positions():
    m = ExactMatrix.sparse(2, 3, [((0, 1), gr("1/2")), ((0, 1), gr(0, "1/3")),
                                  ((1, 2), 1), ((1, 2), -1), ((1, 0), 0)])
    assert m == ExactMatrix([[0, gr("1/2", "1/3"), 0], [0, 0, 0]])
    assert m[1, 2] is GR_ZERO
    with pytest.raises(IndexError):
        ExactMatrix.sparse(2, 3, [((2, 0), 1)])


def test_absent_entry_is_the_shared_zero():
    m = ExactMatrix.unit(3, 4, 1, 2) * gr("1/3", -2)
    assert m[0, 0] is GR_ZERO and m[2, 3] is GR_ZERO
    assert m[1, 2] == gr("1/3", -2)
    assert row(m, 0) == (GR_ZERO,) * 4 and m.column(2) == (GR_ZERO, gr("1/3", -2), GR_ZERO)
    with pytest.raises(IndexError):
        m[0, 4]
    with pytest.raises(IndexError):
        m[3, 0]


@pytest.mark.parametrize("read", [lambda m: m[-1, 0], lambda m: m[0, -1], lambda m: m[2, 0],
                                  lambda m: m[0, 2], lambda m: row(m, -1), lambda m: row(m, 2),
                                  lambda m: m.column(-1), lambda m: m.column(2)],
                         ids=["m[-1,0]", "m[0,-1]", "m[2,0]", "m[0,2]", "row(-1)", "row(2)",
                              "column(-1)", "column(2)"])
def test_index_outside_the_shape_raises(read):
    m = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match=r"\(-1, |, -1\)|\(2, |, 2\)"):
        read(m)


def test_wave_matrices_keep_the_dense_wire_format():
    w = wave_matrices()
    mats = [*w.alpha.values(), *w.beta1.values(), *w.beta0.values(),
            w.eta, w.eta1, *w.lorentz.values()]
    for m in mats:
        d = m.to_json_dict()
        assert d == {"rows": m.rows, "cols": m.cols,
                     "entries": [[fraction_str(e.re), fraction_str(e.im)]
                                 for i in range(m.rows) for e in row(m, i)]}
        assert matrix_from_json(d) == m


# -- the observable store against a plain dict-of-GaussianRational reference --

# keys are drawn in either order and may repeat after sorting, so the
# constructor's normalisation and summing are exercised too
monomials = st.lists(st.integers(0, 7), max_size=2).map(tuple)
observables = st.dictionaries(monomials, entries, min_size=1, max_size=6)
linear = st.dictionaries(st.lists(st.integers(0, 7), max_size=1).map(tuple), entries,
                         min_size=1, max_size=4)


def _ref_obs(*pairs):
    """sum of coefficient * dict over sorted monomials, without the entries that cancel."""
    out = {}
    for c, d in pairs:
        for k, v in d.items():
            k = tuple(sorted(k))
            out[k] = out.get(k, GR_ZERO) + c * v
    return {k: v for k, v in out.items() if v}


def _ref_degree(d):
    return max((len(k) for k in d), default=0)


def _ref_product(a, b):
    return _ref_obs(*((x * y, {ka + kb: GR_ONE}) for ka, x in a.items() for kb, y in b.items()))


def _ref_derivative(d, i):
    terms = []
    for k, v in d.items():
        if i in k:
            rest = list(k)
            rest.remove(i)
            terms.append((v * k.count(i), {tuple(rest): GR_ONE}))
    return _ref_obs(*terms)


def _ref_bracket(f, g):
    terms = []
    for mu in range(4):
        terms.append((GR_ONE, _ref_product(_ref_derivative(f, mu), _ref_derivative(g, 4 + mu))))
        terms.append((GR_MINUS_ONE,
                      _ref_product(_ref_derivative(f, 4 + mu), _ref_derivative(g, mu))))
    return _ref_obs(*terms)


def _same_obs(obs, ref):
    """obs holds ref, and equals, hash for hash, the observable built from ref."""
    assert dict(obs.coeffs) == ref
    other = QuadraticObservable(ref)
    assert obs == other and hash(obs) == hash(other)


@given(st.data())
def test_observable_store_matches_dict_reference(data):
    da, db = data.draw(observables), data.draw(observables)
    la, lb = data.draw(linear), data.draw(linear)
    s = data.draw(entries)
    a, b = QuadraticObservable(da), QuadraticObservable(db)
    p, q = QuadraticObservable(la), QuadraticObservable(lb)
    ra, rb, rp, rq = (_ref_obs((GR_ONE, d)) for d in (da, db, la, lb))

    _same_obs(a, ra)
    _same_obs(a + b, _ref_obs((GR_ONE, ra), (GR_ONE, rb)))
    _same_obs(a - b, _ref_obs((GR_ONE, ra), (GR_MINUS_ONE, rb)))
    _same_obs(-a, _ref_obs((GR_MINUS_ONE, ra)))
    _same_obs(a.scale(s), _ref_obs((s, ra)))
    _same_obs(a * s, _ref_obs((s, ra)))
    _same_obs(s * a, _ref_obs((s, ra)))
    _same_obs(p * q, _ref_product(rp, rq))
    if _ref_degree(ra) + _ref_degree(rb) > 2:
        with pytest.raises(ValueError):
            a * b
    else:
        _same_obs(a * b, _ref_product(ra, rb))
    for i in range(8):
        _same_obs(a.derivative(i), _ref_derivative(ra, i))
    _same_obs(poisson_bracket(a, b), _ref_bracket(ra, rb))

    # cancellation to zero, and equal observables reached by different routes
    for zero in (a - a, a.scale(GR_ZERO), (a + b) - b - a, poisson_bracket(a, a)):
        _same_obs(zero, {})
        assert zero.is_zero() and zero == QuadraticObservable()
    _same_obs((a + b) - b, ra)
    for x, y, rx, ry in ((a, b, ra, rb), (a, a.scale(s), ra, _ref_obs((s, ra))),
                         (p, q, rp, rq)):
        assert (x == y) == (rx == ry)
    if s:
        _same_obs(a.scale(s).scale(GR_ONE / s), ra)
    k = data.draw(st.lists(st.integers(0, 7), min_size=3, max_size=3).map(tuple))
    with pytest.raises(ValueError):
        QuadraticObservable({k: GR_ONE})
