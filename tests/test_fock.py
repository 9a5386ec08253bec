import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stueckelberg.exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO,
                                GaussianRational, mat_columns)
from stueckelberg.fock import (BilinearOperator, FockPolyState, LadderOp,
                               SchemeMismatchError, TruncationOverflowError,
                               apply_ladder, commutator_tables, decompose_physical,
                               energy_operator, inner_product, ladder_matrix,
                               monomial_basis, quantize, quantum_charges)
from stueckelberg.modes import QuadraticObservable, pi_sym, q_sym

N = 6
K0 = Fraction(5)


def test_basis_enumeration():
    basis = monomial_basis(2)
    assert basis[0] == (0, 0, 0, 0)
    assert len(basis) == 15  # C(4,4) + C(5,4) with degrees 0..2 -> 1 + 4 + 10
    assert len(monomial_basis(N)) == 210


def test_creation_and_annihilation():
    vac = FockPolyState.vacuum(N, 2)
    s = apply_ladder(LadderOp(1, "create"), vac)
    assert s.coeffs == {(1, 0, 0, 0): GR_ONE}
    back = apply_ladder(LadderOp(1, "annihilate"), s)
    assert back == vac
    # scalar sector picks up the metric sign on annihilation
    t = apply_ladder(LadderOp(4, "create"), vac)
    down = apply_ladder(LadderOp(4, "annihilate"), t)
    assert down == vac.scale(GR_MINUS_ONE)


def test_commutator_actions():
    # scheme 1 swaps which of the scalar pair creates; the pair labelled
    # (b0, b0+) still has commutator -1
    create, annih = LadderOp(4, "create"), LadderOp(4, "annihilate")
    for b in monomial_basis(N - 1):
        s = FockPolyState.basis_state(b, N, 1)
        comm = (apply_ladder(create, apply_ladder(annih, s))
                - apply_ladder(annih, apply_ladder(create, s)))
        assert comm == s.scale(GR_MINUS_ONE), b


def test_truncation_overflow_is_loud():
    top = FockPolyState.basis_state((N, 0, 0, 0), N, 2)
    with pytest.raises(TruncationOverflowError):
        apply_ladder(LadderOp(2, "create"), top)
    with pytest.raises(TruncationOverflowError):
        FockPolyState({(N + 1, 0, 0, 0): GR_ONE}, N, 2)


def test_scheme_mixing_is_an_error():
    a = FockPolyState.vacuum(N, 1)
    b = FockPolyState.vacuum(N, 2)
    with pytest.raises(SchemeMismatchError):
        a + b
    with pytest.raises(SchemeMismatchError):
        inner_product(a, b)
    with pytest.raises(SchemeMismatchError):
        energy_operator(K0, 2).apply(a)


def test_subspace_orthogonality():
    # states with zero scalar-sector occupation are orthogonal to the rest
    phys = FockPolyState.basis_state((2, 0, 0, 0), N, 2)
    for n4 in (1, 2, 3):
        other = FockPolyState.basis_state((2, 0, 0, n4), N, 2)
        assert inner_product(phys, other) == GR_ZERO


def test_seventeen_quantum_charges():
    assert len(quantum_charges()) == 17


def test_quantize_rejects_non_bilinear():
    with pytest.raises(ValueError):
        quantize(q_sym(1) * q_sym(1), K0)


def test_physical_decomposition_cases():
    # the scalar-excited part of |1,0,0,0> + |0,0,0,1> has norm -1
    combo = FockPolyState({(1, 0, 0, 0): GR_ONE, (0, 0, 0, 1): GR_ONE}, N, 2)
    _, sn = decompose_physical(combo)
    assert inner_product(sn, sn) == GR_MINUS_ONE

    with pytest.raises(SchemeMismatchError):
        decompose_physical(FockPolyState.vacuum(N, 1))


# -- the integer kernel against a plain dict-of-GaussianRational reference ----

REF_N = 4
mixed = st.fractions(min_value=-9, max_value=9, max_denominator=12)
values = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, mixed),
                   st.builds(GaussianRational, mixed, mixed))
state_dicts = st.dictionaries(st.sampled_from(monomial_basis(REF_N)), values,
                              min_size=1, max_size=6)
op_dicts = st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 4)), values,
                           min_size=1, max_size=5)
modes = st.integers(1, 4)


def _ref_sign(mode, scheme):
    return -1 if scheme == 2 and mode == 4 else 1


def _ref_add(*pairs):
    """sum of coefficient * dict, without the entries that cancel."""
    out = {}
    for c, d in pairs:
        for k, v in d.items():
            out[k] = out.get(k, GR_ZERO) + c * v
    return {k: v for k, v in out.items() if v}


def _ref_bump(k, mode, by):
    k = list(k)
    k[mode - 1] += by
    return tuple(k)


def _ref_shift(k, down, up):
    return _ref_bump(_ref_bump(k, down, -1), up, 1)


def _ref_apply(op, state, scheme):
    return _ref_add(*((c * GaussianRational(_ref_sign(j, scheme) * k[j - 1]),
                       {_ref_shift(k, j, i): v})
                      for (i, j), c in op.items() for k, v in state.items() if k[j - 1]))


def _ref_commutator(a, b, scheme):
    terms = []
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                terms.append((x * y * _ref_sign(j, scheme), {(i, l): GR_ONE}))
            if l == i:
                terms.append((x * y * -_ref_sign(l, scheme), {(k, j): GR_ONE}))
    return _ref_add(*terms)


def _ref_annihilate(mode, state, scheme):
    return _ref_add(*((GaussianRational(_ref_sign(mode, scheme) * k[mode - 1]),
                       {_ref_bump(k, mode, -1): v})
                      for k, v in state.items() if k[mode - 1]))


def _ref_inner(a, b, scheme):
    total = GR_ZERO
    for k, v in a.items():
        if k in b:
            w = 1
            for n in k:
                w *= math.factorial(n)
            if scheme == 2 and k[3] % 2:
                w = -w
            total = total + GaussianRational(v.re, -v.im) * b[k] * GaussianRational(w)
    return total


def _same(kernel, ref, build):
    """kernel holds ref, and equals, hash for hash, the object built from ref."""
    assert dict(kernel.coeffs) == ref
    other = build(ref)
    assert kernel == other and hash(kernel) == hash(other)


@given(st.data())
def test_fock_kernel_matches_dict_reference(data):
    scheme = data.draw(st.sampled_from((1, 2)))
    sa, sb = data.draw(state_dicts), data.draw(state_dicts)
    oa, ob = data.draw(op_dicts), data.draw(op_dicts)
    s = data.draw(values)
    a, b = FockPolyState(sa, REF_N, scheme), FockPolyState(sb, REF_N, scheme)
    p, q = BilinearOperator(oa, scheme), BilinearOperator(ob, scheme)
    ra, rb = _ref_add((GR_ONE, sa)), _ref_add((GR_ONE, sb))
    rp, rq = _ref_add((GR_ONE, oa)), _ref_add((GR_ONE, ob))

    def state(d):
        return FockPolyState(d, REF_N, scheme)

    def op(d):
        return BilinearOperator(d, scheme)

    _same(a, ra, state)
    _same(p, rp, op)
    _same(p.apply(a), _ref_apply(rp, ra, scheme), state)
    _same(p.commutator(q), _ref_commutator(rp, rq, scheme), op)
    _same(a + b, _ref_add((GR_ONE, ra), (GR_ONE, rb)), state)
    _same(a - b, _ref_add((GR_ONE, ra), (GR_MINUS_ONE, rb)), state)
    _same(p + q, _ref_add((GR_ONE, rp), (GR_ONE, rq)), op)
    _same(p - q, _ref_add((GR_ONE, rp), (GR_MINUS_ONE, rq)), op)
    _same(a.scale(s), _ref_add((s, ra)), state)
    _same(p.scale(s), _ref_add((s, rp)), op)
    assert inner_product(a, b) == _ref_inner(ra, rb, scheme)

    # cancellation to zero, and equal objects reached by different routes
    for zero in (a - a, a.scale(GR_ZERO), (a + b) - b - a):
        _same(zero, {}, state)
    for zero in (p - p, p.commutator(p), p.scale(GR_ZERO)):
        _same(zero, {}, op)
    _same((a + b) - b, ra, state)
    for x, y, rx, ry in ((a, b, ra, rb), (a, a.scale(s), ra, _ref_add((s, ra))),
                         (p, q, rp, rq), (p, p.scale(s), rp, _ref_add((s, rp)))):
        assert (x == y) == (rx == ry)
    if s:
        _same(a.scale(s).scale(GR_ONE / s), ra, state)
        _same(p.scale(s).scale(GR_ONE / s), rp, op)

    mode = data.draw(modes)
    _same(apply_ladder(LadderOp(mode, "annihilate"), a), _ref_annihilate(mode, ra, scheme), state)
    if any(sum(k) == REF_N for k in ra):
        with pytest.raises(TruncationOverflowError):
            apply_ladder(LadderOp(mode, "create"), a)
    else:
        _same(apply_ladder(LadderOp(mode, "create"), a),
              {_ref_bump(k, mode, 1): v for k, v in ra.items()}, state)

    other = 3 - scheme
    for call in (lambda: a + FockPolyState(sb, REF_N, other),
                 lambda: a - FockPolyState(sb, REF_N, other),
                 lambda: inner_product(a, FockPolyState(sb, REF_N, other)),
                 lambda: p.apply(FockPolyState(sa, REF_N, other)),
                 lambda: p + BilinearOperator(ob, other),
                 lambda: p - BilinearOperator(ob, other),
                 lambda: p.commutator(BilinearOperator(ob, other))):
        with pytest.raises(SchemeMismatchError):
            call()


def test_terms_that_cancel_leave_the_zero_state():
    # (1, 2) moves |0,1,0,0> onto |1,0,0,0>, and (1, 1) takes |1,0,0,0> away
    p = BilinearOperator({(1, 2): Fraction(1, 2), (1, 1): Fraction(-1, 2)})
    s = FockPolyState({(0, 1, 0, 0): GR_ONE, (1, 0, 0, 0): GR_ONE}, N, 2)
    out = p.apply(s)
    assert out.is_zero() and out == FockPolyState({}, N, 2)


def test_equal_numerators_over_different_denominators_differ():
    half, third = (FockPolyState({(1, 0, 0, 0): Fraction(1, d)}, N, 2) for d in (2, 3))
    assert half != third and half.scale(Fraction(2, 3)) == third
    half, third = (BilinearOperator({(1, 1): Fraction(1, d)}) for d in (2, 3))
    assert half != third and half.scale(Fraction(2, 3)) == third


# -- the matrix builders against the per-state action -------------------------

LADDER_OPS = [LadderOp(mode, d) for mode in (1, 2, 3, 4) for d in ("create", "annihilate")]


def _column(m, c, rows, truncation, scheme):
    """Column c of m as a state over the monomials rows."""
    return FockPolyState({k: m[r, c] for r, k in enumerate(rows) if m[r, c]}, truncation, scheme)


def _check_matrix(build, act, cols, rows, truncation, scheme):
    """build(cols, rows) holds act(basis state) in column c, or raises as act does."""
    images = []
    for k in cols:
        try:
            images.append(act(FockPolyState.basis_state(k, truncation, scheme)))
        except TruncationOverflowError:
            # the cutoff raises whatever the rows, with k alone as the column
            with pytest.raises(TruncationOverflowError):
                build([k], rows)
            with pytest.raises(ValueError):
                build(cols, rows)
            return
    if any(k not in rows for image in images for k in image.coeffs):
        with pytest.raises(ValueError, match="outside the row set"):
            build(cols, rows)
        return
    m = build(cols, rows)
    assert m.shape == (len(rows), len(cols))
    for c, image in enumerate(images):
        assert _column(m, c, rows, truncation, scheme) == image, cols[c]


@given(st.data())
def test_operator_matrices_match_the_per_state_action(data):
    truncation = data.draw(st.integers(1, 5))
    basis = monomial_basis(truncation)
    scheme = data.draw(st.sampled_from((1, 2)))
    cols = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=12, unique=True))
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(basis))
    else:
        rows = data.draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
    p = BilinearOperator(data.draw(op_dicts), scheme)
    _check_matrix(p.matrix, p.apply, cols, rows, truncation, scheme)
    for op in LADDER_OPS:
        _check_matrix(lambda cs, rs, op=op: ladder_matrix(op, cs, rs, truncation),
                      lambda s, op=op: apply_ladder(op, s), cols, rows, truncation, 2)
    with pytest.raises(SchemeMismatchError):
        p.apply(FockPolyState.basis_state(cols[0], truncation, 3 - scheme))


def test_an_image_that_cancels_outside_the_rows_is_no_error():
    # in scheme 2, a+_2 a_2 + a+_4 a_4 sends |0,1,1,1> to 1 - 1 = 0 times itself
    op = BilinearOperator({(2, 2): GR_ONE, (4, 4): GR_ONE})
    assert op.apply(FockPolyState.basis_state((0, 1, 1, 1), 3, 2)).is_zero()
    assert op.matrix([(0, 1, 1, 1)], [(0, 0, 0, 0)]) == ExactMatrix.zeros(1, 1)


def test_images_at_one_position_add_up():
    # a+_2 a_2 and a+_3 a_3 each send |0,1,1,0> to i times itself
    op = BilinearOperator({(2, 2): GR_I, (3, 3): GR_I})
    assert op.matrix([(0, 1, 1, 0)], [(0, 1, 1, 0)]) == ExactMatrix([[GR_I * 2]])


def test_matrix_builders_raise_at_the_cutoff_and_outside_the_rows():
    basis = monomial_basis(N)
    top = [(N, 0, 0, 0)]
    with pytest.raises(TruncationOverflowError):
        ladder_matrix(LadderOp(2, "create"), top, basis, N)
    wide = ladder_matrix(LadderOp(2, "create"), top, monomial_basis(N + 1), N + 1)
    assert wide.shape == (len(monomial_basis(N + 1)), 1)
    with pytest.raises(ValueError, match="outside the row set"):
        ladder_matrix(LadderOp(2, "create"), top, basis, N + 1)
    with pytest.raises(ValueError, match="outside the row set"):
        BilinearOperator({(2, 1): GR_ONE}).matrix(top, top)


@given(st.data())
def test_coefficient_table_is_the_degree_one_action(data):
    scheme = data.draw(st.sampled_from((1, 2)))
    p = BilinearOperator(data.draw(op_dicts), scheme)
    t = p.table()
    assert t.shape == (4, 4) and BilinearOperator.from_table(t, scheme) == p
    # on the one-quantum states a bilinear acts as its table times the signs
    ones = [tuple(int(m == k) for m in range(4)) for k in range(4)]
    signs = ExactMatrix.sparse(4, 4, (((k, k), -1 if scheme == 2 and k == 3 else 1)
                                      for k in range(4)))
    assert p.matrix(ones, ones) == t @ signs


@given(st.data())
def test_stacked_commutator_tables_match_each_pair(data):
    scheme = data.draw(st.sampled_from((1, 2)))
    ops = [BilinearOperator(data.draw(op_dicts), scheme)
           for _ in range(data.draw(st.integers(2, 8)))]
    pairs = list(combinations(ops, 2))
    assert commutator_tables(ops) == mat_columns([a.commutator(b).table() for a, b in pairs])


def test_stacked_charge_table_matches_each_pair():
    charges = list(quantum_charges().values())
    want = [a.commutator(b).table() for a, b in combinations(charges, 2)]
    assert commutator_tables(charges) == mat_columns(want)
    with pytest.raises(SchemeMismatchError):
        commutator_tables([charges[0], BilinearOperator({(1, 1): GR_ONE}, scheme=1)])


# -- integer quantize against the GaussianRational tables ---------------------

def _ref_quantize(obs, k0):
    """quantize on GaussianRational tables, the pair factors 1/(2 k0), -k0/2, -i/2."""
    create_create, annih_annih, bilinear = {}, {}, {}

    def add(table, key, v):
        table[key] = table.get(key, GR_ZERO) + v

    def pair_factor(a, b):
        if a < 4 and b < 4:
            return GaussianRational(Fraction(1, 2) / k0)
        if a >= 4 and b >= 4:
            return GaussianRational(-k0 / 2)
        return GaussianRational(0, Fraction(-1, 2))

    for key, coeff in obs.coeffs.items():
        if len(key) != 2:
            raise ValueError("not homogeneous")
        i, j = key
        mu, nu = (i % 4) + 1, (j % 4) + 1
        si, sj = (GR_ONE if i < 4 else GR_MINUS_ONE), (GR_ONE if j < 4 else GR_MINUS_ONE)
        base = coeff * pair_factor(i, j)
        add(annih_annih, tuple(sorted((mu, nu))), base)
        add(bilinear, (nu, mu), base * sj)
        add(bilinear, (mu, nu), base * si)
        add(create_create, tuple(sorted((mu, nu))), base * si * sj)
    if any(v for table in (create_create, annih_annih) for v in table.values()):
        raise ValueError("residue")
    phase = {1: GR_ONE, 2: GR_ONE, 3: GR_ONE, 4: GR_I}
    return BilinearOperator({(m, n): v * phase[m] * phase[n] for (m, n), v in bilinear.items()})


def _bilinear_blocks(k0):
    """Quadratics that quantise to ladder bilinears: each has no aa or a+a+ part."""
    blocks = []
    for mu in (1, 2, 3, 4):
        for nu in (1, 2, 3, 4):
            blocks.append(q_sym(mu) * pi_sym(nu) - q_sym(nu) * pi_sym(mu))
            blocks.append((q_sym(mu) * q_sym(nu)).scale(k0)
                          + (pi_sym(mu) * pi_sym(nu)).scale(GR_ONE / GaussianRational(k0)))
    return blocks


@given(st.data())
def test_integer_quantize_matches_the_rational_tables(data):
    k0 = data.draw(mixed.filter(bool))
    blocks = _bilinear_blocks(k0)
    obs = QuadraticObservable()
    for _ in range(data.draw(st.integers(0, 4))):
        obs = obs + data.draw(st.sampled_from(blocks)).scale(data.draw(values))
    assert quantize(obs, k0) == _ref_quantize(obs, k0)
    # a q.q or pi.pi term on its own leaves an aa residue
    mu, nu = data.draw(modes), data.draw(modes)
    sym = data.draw(st.sampled_from((q_sym, pi_sym)))
    extra = (sym(mu) * sym(nu)).scale(data.draw(values.filter(bool)))
    for bad in (obs + extra, obs + QuadraticObservable.constant(GR_ONE), obs + q_sym(mu)):
        with pytest.raises(ValueError):
            _ref_quantize(bad, k0)
        with pytest.raises(ValueError):
            quantize(bad, k0)
