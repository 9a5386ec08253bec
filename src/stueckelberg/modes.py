"""Classical momentum-space canonical formalism for a single field mode.

Observables are polynomials of degree at most two in the eight canonical
symbols q1..q4, pi1..pi4, with exact scalar coefficients held in the
integer store of `exact._ExactCoefficients`.  A u(3,1) parameter set
is three coefficient tables, the phase omega0 and 4x4 tables A
(antisymmetric) and S (symmetric), and every map linear in it (the
generator matrix, the canonical flow, its generating function, the
charge sum) is a table expression.  The parameters are plain Gaussian
rationals, so "valid to first order in the parameters" is decided by
plain equality of observables.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational,
                    _ExactCoefficients, _lowest, _pruned, _scalar, as_fraction, assemble,
                    mat_columns, mat_commutators, mat_inverse)


def _exact(x):
    c = GaussianRational._coerce(x)
    if c is None:
        raise TypeError(f"not an exact scalar: {x!r}")
    return c


def _monomial(k):
    k = tuple(sorted(k))
    if len(k) > 2:
        raise ValueError("observable degree exceeds 2")
    return k


def _without(k, i):
    """Monomial key k with one factor of symbol i (present in k) removed."""
    return k[1:] if k[0] == i else k[:1]


class QuadraticObservable(_ExactCoefficients):
    """Polynomial of degree <= 2 over the canonical symbols.

    Symbols 0..3 are q1..q4 and 4..7 are pi1..pi4.  Monomial keys are ()
    for the constant, (i,) for a symbol, and (i, j) with i <= j for a
    product.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        self._store((coeffs or {}).items(), _monomial)

    @staticmethod
    def constant(v):
        return QuadraticObservable({(): v})

    @staticmethod
    def symbol(i):
        return QuadraticObservable({(i,): GR_ONE})

    def __mul__(self, other):
        """Polynomial product; the combined degree must stay <= 2."""
        if not isinstance(other, QuadraticObservable):
            return self.scale(other)
        out = {}
        for ka, (a, b) in self._c.items():
            for kb, (c, d) in other._c.items():
                k = _monomial(ka + kb)
                x, y = a * c - b * d, a * d + b * c
                e = out.get(k)
                out[k] = (x, y) if e is None else (e[0] + x, e[1] + y)
        return self._with(*_lowest(_pruned(out), self._den * other._den))

    def derivative(self, i):
        """Formal partial derivative with respect to symbol i."""
        out = {}
        for k, (a, b) in self._c.items():
            if i in k:
                # distinct monomials lose i to distinct monomials
                f = k.count(i)
                out[_without(k, i)] = (a * f, b * f)
        return self._with(*_lowest(out, self._den))


def q_sym(mu):
    """Coordinate symbol q_mu, mu in 1..4."""
    return QuadraticObservable.symbol(mu - 1)


def pi_sym(mu):
    """Momentum symbol pi_mu, mu in 1..4."""
    return QuadraticObservable.symbol(3 + mu)


def poisson_bracket(f: QuadraticObservable, g: QuadraticObservable) -> QuadraticObservable:
    """Canonical bracket with {q_mu, pi_nu} = delta, in one pass over the monomial pairs.

    A monomial of f holding q_mu (symbol i < 4) with one of g holding
    pi_mu (symbol i + 4) gives d/dq_mu of the first times d/dpi_mu of
    the second; a pi_mu in f with a q_mu in g gives the same with a
    minus sign.
    """
    out = {}
    for kf, (a, b) in f._c.items():
        for i in set(kf):
            j = i + 4 if i < 4 else i - 4
            n = kf.count(i) if i < 4 else -kf.count(i)
            rest = _without(kf, i)
            for kg, (c, d) in g._c.items():
                if j in kg:
                    m = n * kg.count(j)
                    k = _monomial(rest + _without(kg, j))
                    x, y = m * (a * c - b * d), m * (a * d + b * c)
                    e = out.get(k)
                    out[k] = (x, y) if e is None else (e[0] + x, e[1] + y)
    return f._with(*_lowest(_pruned(out), f._den * g._den))


def observable_columns(*groups):
    """One matrix per group of observables, column c holding the group's c-th coefficients.

    The rows are the 45 monomials of degree at most two in one fixed
    order, so the matrices of all groups compare and multiply alike.
    """
    monomials = [()] + [(i,) for i in range(8)] + [(i, j) for i in range(8) for j in range(i, 8)]
    row = {k: r for r, k in enumerate(monomials)}.__getitem__
    return [assemble(len(monomials), len(g), ((o, lambda k, c=c: (row(k), c))
                                              for c, o in enumerate(g))) for g in groups]


class ModeContext(namedtuple("ModeContext", "k0")):
    """A single momentum mode, identified by its (positive) energy."""

    __slots__ = ()

    def __new__(cls, k0):
        k0 = as_fraction(k0)
        if k0 <= 0:
            raise ValueError("mode energy must be positive")
        return super().__new__(cls, k0)


def hamiltonian(ctx: ModeContext) -> QuadraticObservable:
    """H = (1/2) sum over mu of (pi_mu^2 + k0^2 q_mu^2)."""
    half = GaussianRational(Fraction(1, 2))
    k2 = GaussianRational(ctx.k0 * ctx.k0)
    out = QuadraticObservable()
    for mu in range(1, 5):
        out = out + (pi_sym(mu) * pi_sym(mu)).scale(half)
        out = out + (q_sym(mu) * q_sym(mu)).scale(half * k2)
    return out


def amplitude_form_hamiltonian(ctx: ModeContext) -> QuadraticObservable:
    """The same energy written as 2 k0^2 sum of B_mu B_mu^+ in amplitude variables.

    B_mu = (q_mu + i pi_mu / k0)/2 and its conjugate; the fourth slot is
    already folded in through the uniform index convention, so the sum
    runs over all four modes.
    """
    k0 = GaussianRational(ctx.k0)
    half = GaussianRational(Fraction(1, 2))
    out = QuadraticObservable()
    for mu in range(1, 5):
        b = (q_sym(mu) + pi_sym(mu).scale(GR_I / k0)).scale(half)
        b_plus = (q_sym(mu) - pi_sym(mu).scale(GR_I / k0)).scale(half)
        out = out + (b * b_plus).scale(k0 * k0 * GaussianRational(2))
    return out


class U31Params(namedtuple("U31Params", "omega0 a s")):
    """Infinitesimal group parameters as three coefficient tables.

    omega0 is the phase, `a` the antisymmetric 4x4 table A and `s` the
    symmetric 4x4 table S, both `ExactMatrix`es with mode mu at index
    mu - 1.  The constructor takes labelled values: antisym={(mu, nu): v}
    with mu < nu sets A[mu, nu] = v and A[nu, mu] = -v, and
    sym={(mu, nu): v} with mu <= nu sets S[mu, nu] = S[nu, mu] = v.  It
    enforces the reality pattern: omega0 and the purely spatial entries
    are real; the mixed space-time entries (a4) are imaginary; the (44)
    diagonal is real (forced by conjugation consistency of the
    transformation, though not spelled out with the others).
    """

    __slots__ = ()

    def __new__(cls, omega0=GR_ZERO, antisym=(), sym=()):
        omega0 = _exact(omega0)
        a = {}
        for (mu, nu), v in dict(antisym).items():
            if not (1 <= mu < nu <= 4):
                raise ValueError("antisymmetric labels need mu < nu")
            a[(mu, nu)] = _exact(v)
        s = {}
        for (mu, nu), v in dict(sym).items():
            if not (1 <= mu <= nu <= 4):
                raise ValueError("symmetric labels need mu <= nu")
            s[(mu, nu)] = _exact(v)
        if omega0.im:
            raise ValueError("omega0 must be real")
        for kind, given in (("antisym", a), ("sym", s)):
            for (mu, nu), v in given.items():
                if nu == 4 and mu != 4:
                    if v.re:
                        raise ValueError(f"{kind} ({mu},4) parameter must be imaginary")
                elif v.im:
                    raise ValueError(f"{kind} ({mu},{nu}) parameter must be real")
        a_table = ExactMatrix.sparse(4, 4, [e for (mu, nu), v in a.items() for e in (
            ((mu - 1, nu - 1), v), ((nu - 1, mu - 1), -v))])
        s_table = ExactMatrix.sparse(4, 4, [(ij, v) for (mu, nu), v in s.items()
                                            for ij in {(mu - 1, nu - 1), (nu - 1, mu - 1)}])
        return super().__new__(cls, omega0, a_table, s_table)

    def traceless(self):
        """S0 = S - (tr S / 4) I, the part of S that acts."""
        return self.s - ExactMatrix.identity(4) * (self.s.trace() * Fraction(1, 4))


def _phase_table(params: U31Params) -> ExactMatrix:
    """W = omega0 I + 2 S0, the table that turns q into pi and pi into q."""
    return ExactMatrix.identity(4) * params.omega0 + params.traceless() * 2


def _table_sum(*terms):
    """Sum of m.xs over (4x4 table m, four observables or four scalars xs) pairs."""
    out = [x * GR_ZERO for x in terms[0][1]]
    for m, xs in terms:
        for (i, j), c in m.coeffs.items():
            out[i] = out[i] + xs[j] * c
    return tuple(out)


def generator_matrix(params: U31Params) -> ExactMatrix:
    """4x4 matrix of the infinitesimal transformation, minus the identity.

    G = 2A - i omega0 I - 2i S0: the flow moves the amplitudes
    B = q + i pi / k0 by delta B = G B.
    """
    return (params.a * 2 - ExactMatrix.identity(4) * (GR_I * params.omega0)
            - params.traceless() * (GR_I * 2))


def infinitesimal_transform(qs, pis, params: U31Params, ctx: ModeContext):
    """First-order canonical variation (delta q, delta pi) of a state.

    delta q = 2A q + W pi / k0 and delta pi = 2A pi - k0 W q, with
    W = omega0 I + 2 S0: the symmetric sector enters through its
    traceless part.  Inputs may be plain scalars or observables: only
    ring operations are used.
    """
    k0 = GaussianRational(ctx.k0)
    a2, w = params.a * 2, _phase_table(params)
    return _table_sum((a2, qs), (w / k0, pis)), _table_sum((a2, pis), (w * -k0, qs))


def generating_function(params: U31Params, ctx: ModeContext) -> QuadraticObservable:
    """F(q, pi') = q.pi' + pi'.2A.q + (pi'.W.pi' / k0 + k0 q.W.q) / 2.

    The momentum symbols stand for the primed momenta here.  The plain
    q.pi' term generates the identity; each parameter adds its bilinear.
    F is stored once from its terms, and terms on one monomial add up.
    """
    k0 = GaussianRational(ctx.k0)
    w = _phase_table(params) * Fraction(1, 2)
    terms = [((i, 4 + i), GR_ONE) for i in range(4)]
    terms += [((4 + i, j), a) for (i, j), a in (params.a * 2).coeffs.items()]
    terms += [((4 + i, 4 + j), c / k0) for (i, j), c in w.coeffs.items()]
    terms += [((i, j), c * k0) for (i, j), c in w.coeffs.items()]
    f = object.__new__(QuadraticObservable)
    f._store(terms, _monomial)
    return f


def transform_from_generating_function(params: U31Params, ctx: ModeContext):
    """Recover (delta q, delta pi) from F to first order in the parameters.

    F is q.pi' plus a correction linear in the parameters, so the
    variation read off from F is linear in them too: the inversion
    pi' = pi - correction drops only second-order terms, and plain
    parameters give exactly the first-order variation.
    """
    f = generating_function(params, ctx)
    dq = []
    dpi = []
    for mu in range(1, 5):
        # pi_mu = dF/dq_mu = pi'_mu + correction(q, pi'); inverting and then
        # reading the primed slots as unprimed is exact at first order since
        # the correction is already first order in the parameters.
        dpi.append(-(f.derivative(mu - 1) - pi_sym(mu)))
        dq.append(f.derivative(3 + mu) - q_sym(mu))
    return tuple(dq), tuple(dpi)


@lru_cache(maxsize=8)
def conserved_charges(ctx: ModeContext) -> dict:
    """The seventeen quadratic charges: 6 antisymmetric, 10 symmetric, 1 phase."""
    k0 = GaussianRational(ctx.k0)
    half = GaussianRational(Fraction(1, 2))
    quarter = GaussianRational(Fraction(1, 4))
    charges = {}
    for mu in range(1, 5):
        for nu in range(mu + 1, 5):
            charges[("antisym", mu, nu)] = pi_sym(mu) * q_sym(nu) - pi_sym(nu) * q_sym(mu)
    trace_part = QuadraticObservable()
    for al in range(1, 5):
        trace_part = trace_part + (pi_sym(al) * pi_sym(al)).scale(GR_ONE / k0) \
            + (q_sym(al) * q_sym(al)).scale(k0)
    for mu in range(1, 5):
        for nu in range(mu, 5):
            j = (pi_sym(mu) * pi_sym(nu)).scale(GR_ONE / k0) + (q_sym(mu) * q_sym(nu)).scale(k0)
            if mu == nu:
                j = j - trace_part.scale(quarter)
            charges[("sym", mu, nu)] = j
    charges[("unit",)] = trace_part.scale(half)
    return charges


def charge_combination(params: U31Params, charges: dict):
    """Parameter-weighted sum over a 17-charge table, classical or quantum.

    Walks the upper triangles of A and S: each antisymmetric entry and
    each symmetric off-diagonal entry enters twice, a diagonal once, as
    in the flow generator.
    """
    out = charges[("unit",)].scale(params.omega0)
    den = params.a._den
    for (i, j), (x, y) in params.a._c.items():
        if i < j:
            out = out + charges[("antisym", i + 1, j + 1)].scale(_scalar(2 * x, 2 * y, den))
    den = params.s._den
    for (i, j), (x, y) in params.s._c.items():
        if i <= j:
            w = 1 if i == j else 2
            out = out + charges[("sym", i + 1, j + 1)].scale(_scalar(w * x, w * y, den))
    return out


def basis_directions():
    """Sixteen independent parameter directions spanning the symmetry algebra.

    The symmetric diagonal contributes only its traceless part, so the
    three differences against the (44) entry complete the basis; the
    pure-trace direction acts trivially and is checked separately.
    Directions mixing index 4 carry an imaginary coefficient to satisfy
    the reality pattern.
    """
    dirs = [("omega0", U31Params(omega0=GR_ONE))]
    for (mu, nu) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        unit = GR_I if nu == 4 else GR_ONE
        dirs.append((f"a{mu}{nu}", U31Params(antisym={(mu, nu): unit})))
    for (mu, nu) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        unit = GR_I if nu == 4 else GR_ONE
        dirs.append((f"s{mu}{nu}", U31Params(sym={(mu, nu): unit})))
    for a in (1, 2, 3):
        dirs.append((f"d{a}", U31Params(sym={(a, a): GR_ONE, (4, 4): GR_MINUS_ONE})))
    return dirs


def trace_direction():
    """The pure-trace symmetric direction, which must act as the identity."""
    return U31Params(sym={(mu, mu): GR_ONE for mu in range(1, 5)})


@lru_cache(maxsize=None)
def _generator_basis():
    """Direction names, generator matrices, and the inverse of `mat_columns` of the matrices."""
    dirs = basis_directions()
    mats = tuple(generator_matrix(par) for _, par in dirs)
    return tuple(name for name, _ in dirs), mats, mat_inverse(mat_columns(mats))


def decompose_generator(columns: ExactMatrix) -> ExactMatrix:
    """Coefficients in the sixteen basis generator directions, one column per 4x4 matrix.

    columns holds the matrices as `mat_columns` lays them out; row k of
    the result holds their coefficients on the k-th of
    `basis_directions`, all from one product.  Over the complex scalars
    the sixteen directions span everything, so a decomposition always
    exists; membership in the real symmetry algebra is equivalent to all
    coefficients being real, which callers check where it matters.
    """
    return _generator_basis()[2] @ columns


@lru_cache(maxsize=None)
def structure_constants():
    """(names, pairs, f) for the sixteen basis directions A_k.

    pairs lists the 120 name pairs (name_i, name_j), i < j, and column p
    of the 16 x 120 matrix f holds the coefficients f_ij^k of [A_i, A_j]
    in the directions, for the p-th pair: every commutator comes from
    one stacked product, and one more product decomposes them all.
    """
    names, mats, _ = _generator_basis()
    pairs = tuple((a, b) for i, a in enumerate(names) for b in names[i + 1:])
    return names, pairs, decompose_generator(mat_commutators(mats, mats))
