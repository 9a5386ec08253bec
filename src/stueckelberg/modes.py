"""Classical momentum-space canonical formalism for a single field mode.

Observables are polynomials of degree at most two in the eight canonical
symbols q1..q4, pi1..pi4, with exact scalar coefficients held in the
integer store of `exact._ExactCoefficients`.  Group parameters are plain
Gaussian rationals: the infinitesimal transformation and its generating
function are linear in them, so "valid to first order in the
parameters" is decided by plain equality of observables.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational,
                    _ExactCoefficients, _lowest, _pruned, as_fraction, mat_commutator,
                    mat_inverse, mat_vec)

N_MODES = 4


def _scalar(x):
    c = GaussianRational._coerce(x)
    if c is None:
        raise TypeError(f"not an exact scalar: {x!r}")
    return c


def _monomial(k):
    k = tuple(sorted(k))
    if len(k) > 2:
        raise ValueError("observable degree exceeds 2")
    return k


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
    def zero():
        return QuadraticObservable()

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
                out[k[1:] if k[0] == i else k[:1]] = (a * f, b * f)
        return self._with(*_lowest(out, self._den))


def q_sym(mu):
    """Coordinate symbol q_mu, mu in 1..4."""
    return QuadraticObservable.symbol(mu - 1)


def pi_sym(mu):
    """Momentum symbol pi_mu, mu in 1..4."""
    return QuadraticObservable.symbol(3 + mu)


def poisson_bracket(f: QuadraticObservable, g: QuadraticObservable) -> QuadraticObservable:
    """Canonical bracket with {q_mu, pi_nu} = delta."""
    out = QuadraticObservable()
    for mu in range(1, 5):
        iq, ip = mu - 1, 3 + mu
        out = out + f.derivative(iq) * g.derivative(ip) - f.derivative(ip) * g.derivative(iq)
    return out


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


def u31_unit() -> ExactMatrix:
    """The phase generator i times the 4x4 identity."""
    return ExactMatrix.identity(4) * GR_I


def u31_antisym(mu, nu) -> ExactMatrix:
    """Real antisymmetric generator with +1 at (mu, nu) and -1 at (nu, mu)."""
    if mu == nu:
        raise ValueError("antisymmetric generator needs distinct indices")
    return ExactMatrix.sparse(4, 4, [((mu - 1, nu - 1), GR_ONE), ((nu - 1, mu - 1), -GR_ONE)])


def u31_sym(mu, nu) -> ExactMatrix:
    """Symmetric generator i (e^{mu,nu} + e^{nu,mu} - delta/2)."""
    terms = [((mu - 1, nu - 1), GR_I), ((nu - 1, mu - 1), GR_I)]
    if mu == nu:
        half_i = GR_I * GaussianRational(Fraction(-1, 2))
        terms += [((a, a), half_i) for a in range(4)]
    return ExactMatrix.sparse(4, 4, terms)


class U31Params(namedtuple("U31Params", "omega0 antisym sym")):
    """Infinitesimal group parameters with the reality pattern enforced.

    omega0 and the purely spatial entries are real; the mixed space-time
    entries (a4) are imaginary; the (44) diagonal is real (forced by
    conjugation consistency of the transformation, though not spelled
    out with the others).  antisym is keyed by (mu, nu) with mu < nu and
    sym by (mu, nu) with mu <= nu; each instance holds dicts of its own.
    """

    __slots__ = ()

    def __new__(cls, omega0=GR_ZERO, antisym=(), sym=()):
        omega0 = _scalar(omega0)
        a = {}
        for (mu, nu), v in dict(antisym).items():
            if not (1 <= mu < nu <= 4):
                raise ValueError("antisymmetric labels need mu < nu")
            a[(mu, nu)] = _scalar(v)
        s = {}
        for (mu, nu), v in dict(sym).items():
            if not (1 <= mu <= nu <= 4):
                raise ValueError("symmetric labels need mu <= nu")
            s[(mu, nu)] = _scalar(v)
        if omega0.im:
            raise ValueError("omega0 must be real")
        for (mu, nu), v in a.items():
            if nu == 4:
                if v.re:
                    raise ValueError(f"antisym ({mu},4) parameter must be imaginary")
            elif v.im:
                raise ValueError(f"antisym ({mu},{nu}) parameter must be real")
        for (mu, nu), v in s.items():
            if nu == 4 and mu != 4:
                if v.re:
                    raise ValueError(f"sym ({mu},4) parameter must be imaginary")
            elif v.im:
                raise ValueError(f"sym ({mu},{nu}) parameter must be real")
        return super().__new__(cls, omega0, a, s)

    def antisym_at(self, mu, nu):
        if mu == nu:
            return GR_ZERO
        if mu < nu:
            return self.antisym.get((mu, nu), GR_ZERO)
        return -self.antisym.get((nu, mu), GR_ZERO)

    def sym_at(self, mu, nu):
        if mu > nu:
            mu, nu = nu, mu
        return self.sym.get((mu, nu), GR_ZERO)

    def sym_trace(self):
        t = GR_ZERO
        for mu in range(1, 5):
            t = t + self.sym_at(mu, mu)
        return t

    def sym_traceless_at(self, mu, nu):
        v = self.sym_at(mu, nu)
        if mu == nu:
            v = v - self.sym_trace() * GaussianRational(Fraction(1, 4))
        return v


def generator_matrix(params: U31Params) -> ExactMatrix:
    """4x4 matrix of the infinitesimal transformation, minus the identity."""
    out = ExactMatrix.zeros(4)
    out = out + u31_unit() * (-params.omega0)
    for mu in range(1, 5):
        for nu in range(1, 5):
            a = params.antisym_at(mu, nu)
            if a and mu < nu:
                out = out + u31_antisym(mu, nu) * (a + a)
            s = params.sym.get((mu, nu)) if mu <= nu else None
            if s:
                mult = s if mu == nu else s + s
                out = out - u31_sym(mu, nu) * mult
    return out


def infinitesimal_transform(qs, pis, params: U31Params, ctx: ModeContext):
    """First-order canonical variation (delta q, delta pi) of a state.

    Inputs may be plain scalars or observables: only ring operations are
    used.  The symmetric sector enters through its traceless part.
    """
    k0 = GaussianRational(ctx.k0)
    dq = []
    dpi = []
    for mu in range(1, 5):
        acc_q = pis[mu - 1] * (params.omega0 / k0)
        acc_p = qs[mu - 1] * (-params.omega0 * k0)
        for nu in range(1, 5):
            a = params.antisym_at(mu, nu)
            if a:
                acc_q = acc_q + qs[nu - 1] * (a + a)
                acc_p = acc_p + pis[nu - 1] * (a + a)
            st = params.sym_traceless_at(mu, nu)
            if st:
                two = st + st
                acc_q = acc_q + pis[nu - 1] * (two / k0)
                acc_p = acc_p - qs[nu - 1] * (two * k0)
        dq.append(acc_q)
        dpi.append(acc_p)
    return tuple(dq), tuple(dpi)


def generating_function(params: U31Params, ctx: ModeContext) -> QuadraticObservable:
    """F(q, pi') for the infinitesimal transformation.

    The momentum symbols stand for the primed momenta here.  The plain
    q.pi' term generates the identity; each parameter adds its bilinear.
    """
    k0 = GaussianRational(ctx.k0)
    half = GaussianRational(Fraction(1, 2))
    out = QuadraticObservable()
    for mu in range(1, 5):
        out = out + q_sym(mu) * pi_sym(mu)
        out = out + ((pi_sym(mu) * pi_sym(mu)).scale(GR_ONE / k0)
                     + (q_sym(mu) * q_sym(mu)).scale(k0)).scale(params.omega0 * half)
    for mu in range(1, 5):
        for nu in range(1, 5):
            a = params.antisym_at(mu, nu)
            if a:
                out = out + (pi_sym(mu) * q_sym(nu) - pi_sym(nu) * q_sym(mu)).scale(a)
            st = params.sym_traceless_at(mu, nu)
            if st:
                out = out + ((pi_sym(mu) * pi_sym(nu)).scale(GR_ONE / k0)
                             + (q_sym(mu) * q_sym(nu)).scale(k0)).scale(st)
    return out


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

    Off-diagonal labels enter twice, diagonals once, as in the flow generator.
    """
    out = charges[("unit",)].scale(params.omega0)
    for (mu, nu), a in params.antisym.items():
        out = out + charges[("antisym", mu, nu)].scale(a + a)
    for (mu, nu), s in params.sym.items():
        mult = s if mu == nu else s + s
        out = out + charges[("sym", mu, nu)].scale(mult)
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
def _generator_basis_inverse():
    """Direction names and the inverse of the flattened generator-basis matrix."""
    dirs = basis_directions()
    cols = []
    for _, par in dirs:
        g = generator_matrix(par)
        cols.append([g[i, j] for i in range(4) for j in range(4)])
    a = ExactMatrix([[cols[c][r] for c in range(len(dirs))] for r in range(16)])
    return tuple(name for name, _ in dirs), mat_inverse(a)


def decompose_generator(m: ExactMatrix):
    """Coefficients of a 4x4 matrix in the sixteen basis generator directions.

    Over the complex scalars the sixteen directions span everything, so
    a decomposition always exists; membership in the real symmetry
    algebra is equivalent to all coefficients being real, which callers
    check where it matters.
    """
    names, inv = _generator_basis_inverse()
    b = [m[i, j] for i in range(4) for j in range(4)]
    x = mat_vec(inv, b)
    return {name: x[k] for k, name in enumerate(names)}


@lru_cache(maxsize=None)
def structure_constants():
    """(name_i, name_j, decompose_generator([A_i, A_j])) for the 120 basis pairs i < j."""
    mats = [(name, generator_matrix(par)) for name, par in basis_directions()]
    return tuple((ni, nj, decompose_generator(mat_commutator(ai, aj)))
                 for i, (ni, ai) in enumerate(mats) for nj, aj in mats[i + 1:])


def params_scaled(direction_table, coeffs) -> U31Params:
    """Linear combination of basis directions with the given coefficients."""
    omega0 = GR_ZERO
    antisym = {}
    sym = {}
    for (name, par), c in zip(direction_table, coeffs):
        if not c:
            continue
        omega0 = omega0 + par.omega0 * c
        for k, v in par.antisym.items():
            antisym[k] = antisym.get(k, GR_ZERO) + v * c
        for k, v in par.sym.items():
            sym[k] = sym.get(k, GR_ZERO) + v * c
    # _make skips the reality checks: complex coefficients may break them
    return U31Params._make((omega0, {k: v for k, v in antisym.items() if v},
                            {k: v for k, v in sym.items() if v}))
