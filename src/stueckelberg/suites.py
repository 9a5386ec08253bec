"""Identity suites: every verifiable claim declared once, as a named, timed check.

A suite is a class whose `identity`-decorated methods are its checks, in
report order.  Objects its checks share are cached properties, which
`prepared` builds before any check, but for `built_on_use` ones; a build
that raises fails each identity that reads it.  A declaration names at
most one requirement: MOVING_FRAME (at rest the identity is reported as
skipped, with REST_FRAME_REASON) or SCHEME_1 / SCHEME_2 (the identity is
left out unless the configuration runs that vacuum scheme).  A check
passes, or fails with a witness naming the first counterexample.
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, permutations, product

from .exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational,
                    assemble, block_at, mat_columns, mat_commutator, mat_commutators, mat_rank)
from . import em as em_mod
from .epsilon import (BIVECTOR_PAIRS, DIM4, DIM5, DIM10, DIM11, BasisIndex,
                      bivector_component, epsilon_delta)
from .epsilon import epsilon as eps_unit
from .fock import (METRIC_SIGNATURE, BilinearOperator, FockPolyState, LadderOp, apply_ladder,
                   commutator_tables, covariant_ladder_phase, decompose_physical,
                   energy_operator, inner_product, ladder_matrix, monomial_basis,
                   normalized_gram, quantize, quantum_charges)
from .modes import (ModeContext, QuadraticObservable, amplitude_form_hamiltonian,
                    basis_directions, canonical_products, charge_combination,
                    conserved_charges, hamiltonian, infinitesimal_transform, observable_columns,
                    pi_sym, poisson_bracket, q_sym, structure_constants, trace_direction,
                    transform_from_generating_function)
from .projectors import (SPIN_STATES, FourMomentum, ProjectorFamily, dyad_factorize,
                         rank_one_factors)
from .wave import build_alpha, build_beta0, build_beta1, wave_matrices

MOVING_FRAME = "moving frame"
SCHEME_1, SCHEME_2 = 1, 2
REST_FRAME_REASON = "rest-frame: spin direction undefined"
SCHEMES = {"1": (SCHEME_1,), "2": (SCHEME_2,), "both": (SCHEME_1, SCHEME_2)}
IDX = (1, 2, 3, 4)


class IdentityRecord(namedtuple("IdentityRecord",
                                 "suite ident claim status witness reason elapsed_ms",
                                 defaults=(None, None, None))):
    """One identity's outcome; status is "pass", "fail" or "skip"."""

    __slots__ = ()


class Recorder:
    """Collects records for one suite, timing each check."""

    def __init__(self, suite):
        self.suite = suite
        self.records = []

    def check(self, ident, claim, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failure with the exception as witness
            result = (False, f"{type(exc).__name__}: {exc}")
        elapsed = (time.perf_counter() - t0) * 1000.0
        if isinstance(result, tuple):
            ok, witness = result
        else:
            ok, witness = result, None
        self.records.append(IdentityRecord(
            suite=self.suite, ident=ident, claim=claim,
            status="pass" if ok else "fail",
            witness=None if ok else (witness or "identity violated"),
            elapsed_ms=elapsed))

    def skip(self, ident, claim, reason):
        self.records.append(IdentityRecord(
            suite=self.suite, ident=ident, claim=claim,
            status="skip", reason=reason, elapsed_ms=0.0))


class Identity(namedtuple("Identity", "suite ident claim needs check")):
    """One declared claim: its suite, id, claim text, requirement and check.

    needs is None, MOVING_FRAME, SCHEME_1 or SCHEME_2; check(suite)
    returns ok, or (ok, witness).
    """

    __slots__ = ()


def identity(ident, claim, needs=None, check=None):
    """Declare one identity of a suite: `check`, or the decorated method, checks it."""
    def declare(fn):
        fn.declared = (ident, claim, needs)
        return fn
    return declare if check is None else declare(check)


class Suite:
    """One run of a suite under a configuration, with the objects its checks share.

    The constructor keeps only the configuration.  Each shared object is
    a `cached_property`, so a build that raises is not a crash: every
    check that reads the object fails with the exception as its witness.
    """

    name = ""
    identities = ()

    def __init_subclass__(cls):
        cls.identities = tuple(Identity(cls.name, *fn.declared, fn)
                               for fn in vars(cls).values() if hasattr(fn, "declared"))

    def __init__(self, cfg):
        self.cfg = cfg


def scheduled(name, cfg) -> list:
    """The identities of one suite that cfg runs, in report order: one record each."""
    left_out = {SCHEME_1, SCHEME_2}.difference(SCHEMES[cfg.scheme])
    return [d for d in SUITES[name].identities if d.needs not in left_out]


class built_on_use(cached_property):
    """A `cached_property` that `prepared` leaves to the first check that reads it."""


def prepared(name, cfg):
    """SUITES[name](cfg) with each `cached_property` of its class built.

    A build that raises is dropped: the identity that needs it builds it again.
    """
    suite = SUITES[name](cfg)
    for attr in [a for c in type(suite).__mro__ for a, v in vars(c).items()
                 if isinstance(v, cached_property) and not isinstance(v, built_on_use)]:
        with suppress(Exception):
            getattr(suite, attr)
    return suite


def run_suite(name, cfg, take=None, suite=None) -> list:
    """Check, in report order, the identities of one suite that cfg runs.

    take(k), asked once per k in increasing order, says whether this
    process checks the k-th of `scheduled(name, cfg)`; by default it
    checks every one.  suite (from `prepared`) is built here if None, and
    its shared objects then as the checks read them.
    """
    if suite is None:
        suite = SUITES[name](cfg)
    r = Recorder(name)
    for k, d in enumerate(scheduled(name, cfg)):
        if take is not None and not take(k):
            continue
        if d.needs == MOVING_FRAME and not any(cfg.momentum):
            r.skip(d.ident, d.claim, REST_FRAME_REASON)
        else:
            r.check(d.ident, d.claim, partial(d.check, suite))
    return r.records


# ---------------------------------------------------------------------------
# algebra suite

# the orderings (a, b, c) of a triple's slots that a cubic relation sums:
# the Duffin-Kemmer-Petiau trilinear relation of the spin-1 and spin-0
# blocks sums two, the symmetrised cubic of the 11-dim matrices all six
TRILINEAR = ((0, 1, 2), (2, 1, 0))
SYMMETRISED = tuple(permutations(range(3)))


def _cubic_failure(ms, orders):
    """The first triple t (mu, nu, alpha) breaking the cubic relation, or None.

    The relation is sum over orders of m_t[a] m_t[b] m_t[c] = sum over the
    orders with t[a] = t[b] of m_t[c]; ms is keyed by vector index.  Its
    terms are the index triples (t[a], t[b], t[c]), so triples with the
    same terms state one equation, decided once, and the 16 pair
    products m_x m_y are formed once.
    """
    zero = ExactMatrix.zeros(ms[1].rows)
    pairs = {xy: ms[xy[0]] @ ms[xy[1]] for xy in product(IDX, repeat=2)}
    broken = {}
    for t in product(IDX, repeat=3):
        terms = tuple(sorted((t[a], t[b], t[c]) for a, b, c in orders))
        if terms not in broken:
            lhs = sum((pairs[x, y] @ ms[z] for x, y, z in terms), zero)
            broken[terms] = lhs != sum((ms[z] for x, y, z in terms if x == y), zero)
        if broken[terms]:
            return t
    return None


def _every_triple(ms, orders):
    t = _cubic_failure(ms, orders)
    return t is None or (False, f"triple {t}")


def _rotated(x, t, m, n):
    """The image of X_t under the rotation generator J_mn, one four-vector rule per index.

    Sum over k of d(t_k, m) X(t with t_k -> n) - d(t_k, n) X(t with t_k -> m);
    x(*indices) is the matrix X at those indices.
    """
    out = ExactMatrix.zeros(11)
    for k, tk in enumerate(t):
        if tk == m:
            out = out + x(*t[:k], n, *t[k + 1:])
        if tk == n:
            out = out - x(*t[:k], m, *t[k + 1:])
    return out


class Algebra(Suite):
    name = "algebra"
    w = cached_property(lambda s: wave_matrices())

    @identity("unit-product-rule",
              "matrix-unit product rule holds for all 14641 ordered basis pairs")
    def product_rule(self):
        # one product: the units stacked (1331x11) times the units side by
        # side (11x1331) holds E_ab E_cd in block (ab, cd), for ab = 11 a + b
        labels = DIM11.labels
        n = len(labels)
        units = [eps_unit(a, b, DIM11) for a in labels for b in labels]
        stacked = assemble(n ** 3, n, ((u, block_at(n * k, 0)) for k, u in enumerate(units)))
        side = assemble(n, n ** 3, ((u, block_at(0, n * k)) for k, u in enumerate(units)))
        # the expected block (ab, cd) is delta_bc E_ad: one term per nonzero delta
        want = ExactMatrix.zeros(n ** 3)
        for b, c in product(range(n), repeat=2):
            delta = epsilon_delta(labels[b], labels[c])
            if delta:
                want = want + assemble(n ** 3, n ** 3, (
                    (units[n * a + d], block_at(n * (n * a + b), n * (n * c + d)))
                    for a, d in product(range(n), repeat=2))) * delta
        diff = stacked @ side - want
        if diff.is_zero():
            return True
        ab, cd = min((i // n, j // n) for i, j in diff.coeffs)
        a, b, c, d = (labels[k] for k in divmod(ab, n) + divmod(cd, n))
        return False, f"basis pair ({a},{b}) x ({c},{d})"

    @identity("unit-trace", "trace of a basis unit equals the label delta")
    def unit_trace(self):
        for a in DIM11.labels:
            for b in DIM11.labels:
                want = GR_ONE if a == b else GR_ZERO
                if eps_unit(a, b, DIM11).trace() != want:
                    return False, f"trace of unit ({a},{b})"
        return True

    @identity("unit-completeness",
              "summed diagonal units rebuild the identity in every subspace view")
    def completeness(self):
        # the bivector units are summed over all ordered pairs (mu, nu) with a
        # half, so the signs of the swapped lookups must square away exactly
        half = Fraction(1, 2)
        for space in (DIM4, DIM5, DIM10, DIM11):
            pos = space.position
            terms = [((pos(a), pos(a)), 1) for a in space.labels if a.kind != "bivector"]
            for mu, nu in product(IDX, IDX):
                a, sign = bivector_component(mu, nu)
                if a in space:
                    terms.append(((pos(a), pos(a)), half * (sign * sign)))
            if ExactMatrix.sparse(space.dim, space.dim, terms) != ExactMatrix.identity(space.dim):
                return False, f"view {space.name}"
        return True

    @identity("alpha-block-split",
              "each 11-dim wave matrix is the embedded sum of its 10-dim and 5-dim blocks")
    def alpha_split(self):
        for nu in IDX:
            if build_alpha(nu) != assemble(11, 11, ((build_beta1(nu), block_at(1, 1)),
                                                    (build_beta0(nu), block_at(0, 0)))):
                return False, f"alpha_{nu}"
        return True

    trilinear_beta1 = identity(
        "trilinear-beta1",
        "trilinear wave-matrix relation holds for all 64 triples on the 10-dim spin-1 block",
        check=lambda s: _every_triple(s.w.beta1, TRILINEAR))
    trilinear_beta0 = identity(
        "trilinear-beta0",
        "trilinear wave-matrix relation holds for all 64 triples on the 5-dim spin-0 block",
        check=lambda s: _every_triple(s.w.beta0, TRILINEAR))
    alpha_negative = identity(
        "trilinear-alpha-negative",
        "the 11-dim matrices violate the trilinear relation for at least one triple",
        check=lambda s: _cubic_failure(s.w.alpha, TRILINEAR) is not None or (
            False, "the 11-dim matrices unexpectedly satisfy the trilinear relation"))
    cubic = identity(
        "cubic-alpha", "six-term symmetrised cubic relation holds for all 64 triples",
        check=lambda s: _every_triple(s.w.alpha, SYMMETRISED))

    @identity("rotation-closure",
              "rotation generators close with the standard structure constants")
    def rotation_closure(self):
        # [J_a, J_b] for every generator pair a < b comes from one stacked
        # product; the pair (b, a) then claims -[J_a, J_b], and (a, a) zero
        j = self.w.lorentz_signed
        pairs = [t for t in product(IDX, repeat=2) if t[0] != t[1]]
        gens = [j(*rs) for rs in pairs]
        comms = mat_commutators(gens, gens)
        up = list(combinations(range(len(pairs)), 2))
        bad = [(a, a) for a in range(len(pairs)) if not _rotated(j, pairs[a], *pairs[a]).is_zero()]
        for sign, order in ((1, up), (-1, [(b, a) for a, b in up])):
            got = comms * sign
            want = mat_columns([_rotated(j, pairs[a], *pairs[b]) for a, b in order])
            if got != want:
                bad += [order[c] for _, c in (got - want).coeffs]
        if bad:
            a, b = min(bad)
            return False, f"generator pair {pairs[a]}, {pairs[b]}"
        return True

    @identity("alpha-rotation-bracket",
              "wave matrices transform as a four-vector under the rotation generators")
    def alpha_rotation(self):
        alpha = self.w.alpha
        for lam, mn in product(IDX, BIVECTOR_PAIRS):
            if mat_commutator(alpha[lam], self.w.lorentz[mn]) != _rotated(
                    alpha.__getitem__, (lam,), *mn):
                return False, f"(lambda, pair) = ({lam}, {mn})"
        return True

    @identity("rotation-scalar-slot", "rotation generators leave the scalar component untouched")
    def scalar_slot(self):
        for mn in BIVECTOR_PAIRS:
            j = self.w.lorentz[mn]
            for a in range(11):
                if j[0, a] or j[a, 0]:
                    return False, f"pair {mn}, slot {a}"
        return True

    eta_anticommutes = identity(
        "eta-anticommutes-spatial",
        "the metric matrix anticommutes with the three spatial wave matrices",
        check=lambda s: all(s.w.eta @ s.w.alpha[i] == -(s.w.alpha[i] @ s.w.eta) for i in (1, 2, 3)))
    eta_commutes = identity(
        "eta-commutes-time", "the metric matrix commutes with the fourth wave matrix",
        check=lambda s: s.w.eta @ s.w.alpha[4] == s.w.alpha[4] @ s.w.eta)
    eta_hermitian = identity("eta-hermitian", "the metric matrix is Hermitian",
                             check=lambda s: s.w.eta == s.w.eta.dagger())
    eta_involution = identity("eta-involution", "the metric matrix squares to the identity",
                              check=lambda s: s.w.eta @ s.w.eta == ExactMatrix.identity(11))

    @identity("eta-spin1-block",
              "the 10-dim metric block hermitianizes the spin-1 system the same way")
    def eta1_block(self):
        w = self.w
        ok = all((w.eta1 @ w.beta1[i]) == -(w.beta1[i] @ w.eta1) for i in (1, 2, 3))
        return ok and (w.eta1 @ w.beta1[4]) == (w.beta1[4] @ w.eta1)

    @identity("beta4-squared-diagonal",
              "the squared fourth spin-1 matrix is diagonal with entries 0 and 1")
    def beta4_squared(self):
        b = self.w.beta1[4] @ self.w.beta1[4]
        for i in range(10):
            for j in range(10):
                e = b[i, j]
                if i == j:
                    if e != GR_ZERO and e != GR_ONE:
                        return False, f"diagonal entry {i} = {e}"
                elif e:
                    return False, f"off-diagonal entry ({i},{j})"
        return True


# ---------------------------------------------------------------------------
# projectors suite

STATE_KEYS = [(e, s, q) for e in (1, -1) for (s, q) in SPIN_STATES]


def _annihilates(a, roots):
    """True iff the product of (A - r I) over the roots vanishes."""
    ident = ExactMatrix.identity(a.rows)
    prod = ident
    for r in roots:
        prod = prod @ (a - ident * r)
    return prod.is_zero()


def _permutation_sign(perm):
    """Levi-Civita symbol of a permutation of (1, 2, 3, 4): -1 to its inversion count."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


class Projectors(Suite):
    name = "projectors"
    p = cached_property(lambda s: FourMomentum.from_mass_and_momentum(s.cfg.mass,
                                                                      s.cfg.momentum))
    m = cached_property(lambda s: GaussianRational(s.p.m))
    w = cached_property(lambda s: wave_matrices())

    @cached_property
    def fam(self):
        return ProjectorFamily.build(self.p)

    @cached_property
    def dyads(self):
        return {k: dyad_factorize(self.fam.deltas[k], self.p, k) for k in STATE_KEYS}

    @cached_property
    def state_gram(self):
        """(factored, Gram) over STATE_KEYS, with no metric.

        factored[a] says that Delta_a is psi_a phi_a, its `rank_one_factors`,
        and Gram[a, b] = phi_a psi_b.  Where Delta_a and Delta_b both
        factor, Delta_a Delta_b = Gram[a, b] psi_a phi_b with psi_a phi_b
        not zero, so one 8 x 11 by 11 x 8 product decides every such pair.
        """
        factored, parts = [], []
        for k in STATE_KEYS:
            d = self.fam.deltas[k]
            if d.is_zero():
                psi, phi = ExactMatrix.zeros(11, 1), ExactMatrix.zeros(1, 11)
            else:
                psi, phi, _ = rank_one_factors(d)
            factored.append(not d.is_zero() and psi @ phi == d)
            parts.append((psi, phi))
        rows = assemble(8, 11, ((phi, block_at(a, 0)) for a, (_, phi) in enumerate(parts)))
        cols = assemble(11, 8, ((psi, block_at(0, a)) for a, (psi, _) in enumerate(parts)))
        return factored, rows @ cols

    momentum_shell = identity(
        "momentum-shell", "the four-momentum satisfies the exact mass-shell constraint",
        check=lambda s: s.p.p0 ** 2 == s.p.p1 ** 2 + s.p.p2 ** 2 + s.p.p3 ** 2 + s.p.m ** 2)

    @identity("pslash-cubic", "the momentum contraction cubes to its invariant square times itself")
    def pslash_cubic(self):
        ps = self.fam.p_slash
        return ps @ ps @ ps == ps * GaussianRational(self.p.p_squared)

    pslash_traceless = identity("pslash-traceless", "the momentum contraction is traceless",
                                check=lambda s: not s.fam.p_slash.trace())
    energy_idempotent = identity(
        "energy-idempotent", "both energy projectors are idempotent",
        check=lambda s: all(e @ e == e for e in (s.fam.m_plus, s.fam.m_minus)))
    energy_orthogonal = identity(
        "energy-orthogonal", "opposite energy projectors annihilate each other",
        check=lambda s: all((a @ b).is_zero() for a, b in permutations((s.fam.m_plus, s.fam.m_minus))))
    energy_rank = identity(
        "energy-rank", "each energy projector has rank 4, the field's degrees of freedom",
        check=lambda s: (mat_rank(s.fam.m_plus), mat_rank(s.fam.m_minus)) == (4, 4))

    @identity("energy-completeness",
              "the energy projectors sum to the idempotent squared-contraction form")
    def energy_completeness(self):
        total = self.fam.m_plus + self.fam.m_minus
        ps = self.fam.p_slash
        if total != (ps @ ps) * (GR_MINUS_ONE / (self.m * self.m)):
            return False, "sum differs from the normalised squared contraction"
        return total @ total == total

    @identity("spin2-dual-route",
              "the squared-spin operator agrees with its explicit Levi-Civita construction")
    def levi_civita_route(self):
        comps = self.p.components()
        wvec = {}
        for mu in (1, 2, 3, 4):
            acc = ExactMatrix.zeros(11)
            for nu in (1, 2, 3, 4):
                pn = comps[nu - 1]
                if not pn or nu == mu:
                    continue
                for a, b in permutations([x for x in IDX if x not in (mu, nu)]):
                    sgn = GaussianRational(_permutation_sign((mu, nu, a, b)))
                    acc = acc + self.w.lorentz_signed(a, b) * (pn * sgn)
            wvec[mu] = acc / (self.m * GaussianRational(2))
        total = ExactMatrix.zeros(11)
        for mu in (1, 2, 3, 4):
            total = total + wvec[mu] @ wvec[mu]
        return total == self.fam.sigma2

    spin2_minimal = identity(
        "spin2-minimal", "the squared-spin operator annihilates (x)(x - 2)",
        check=lambda s: _annihilates(s.fam.sigma2, [GR_ZERO, GaussianRational(2)]))
    spin2_both_sectors = identity(
        "spin2-both-sectors", "both spin sectors are present: the operator is neither 0 nor 2",
        check=lambda s: not s.fam.sigma2.is_zero() and s.fam.sigma2 != ExactMatrix.identity(11) * 2)
    spinproj_minimal = identity(
        "spinproj-minimal", "the spin-projection operator annihilates (x)(x-1)(x+1)", MOVING_FRAME,
        check=lambda s: _annihilates(s.fam.sigma_p, [GR_ZERO, GR_ONE, GR_MINUS_ONE]))
    spin2_absorbs_projection = identity(
        "spin2-absorbs-projection", "half the squared spin absorbs the projection operator",
        MOVING_FRAME,
        check=lambda s: (s.fam.sigma2 / GaussianRational(2)) @ s.fam.sigma_p == s.fam.sigma_p)
    spinproj_commutes = identity(
        "spinproj-commutes", "the spin-projection operator commutes with the momentum contraction",
        MOVING_FRAME, check=lambda s: mat_commutator(s.fam.sigma_p, s.fam.p_slash).is_zero())

    @identity("projector-commutators", "all spin and energy projector commutators vanish",
              MOVING_FRAME)
    def commutator_block(self):
        s2proj, spproj = self.fam.spin_sectors, self.fam.projections
        for name, a in (("S2(0)", s2proj[0]), ("S2(1)", s2proj[1]),
                        ("S(+1)", spproj[1]), ("S(-1)", spproj[-1]), ("S(0)", spproj[0])):
            if not mat_commutator(a, self.fam.p_slash).is_zero():
                return False, f"[{name}, pslash]"
        for qn, q in (("S(+1)", spproj[1]), ("S(-1)", spproj[-1]), ("S(0)", spproj[0])):
            for sn, s in (("S2(0)", s2proj[0]), ("S2(1)", s2proj[1])):
                if not mat_commutator(s, q).is_zero():
                    return False, f"[{sn}, {qn}]"
        return True

    @identity("state-idempotent", "every pure-state projector is idempotent", MOVING_FRAME)
    def state_idempotent(self):
        factored, gram = self.state_gram
        for a, k in enumerate(STATE_KEYS):
            d = self.fam.deltas[k]
            if gram[a, a] != GR_ONE if factored[a] else d @ d != d:
                return False, f"state {k}"
        return True

    @identity("state-orthogonal", "pure-state projectors are pairwise orthogonal", MOVING_FRAME)
    def state_orthogonal(self):
        deltas, (factored, gram) = self.fam.deltas, self.state_gram
        for (i, a), (j, b) in combinations(enumerate(STATE_KEYS), 2):
            both = factored[i] and factored[j]
            if gram[i, j] if both else not (deltas[a] @ deltas[b]).is_zero():
                return False, f"pair {a}, {b}"
        return True

    @identity("state-rank-one", "every pure-state projector has rank one", MOVING_FRAME)
    def state_rank_one(self):
        for k in STATE_KEYS:
            if mat_rank(self.fam.deltas[k]) != 1:
                return False, f"state {k}"
        return True

    @identity("state-completeness", "the four pure states rebuild each energy projector",
              MOVING_FRAME)
    def state_completeness(self):
        for e, m_eps in ((1, self.fam.m_plus), (-1, self.fam.m_minus)):
            total = ExactMatrix.zeros(11)
            for (s, q) in SPIN_STATES:
                total = total + self.fam.deltas[(e, s, q)]
            if total != m_eps:
                return False, f"energy sign {e}"
        return True

    @identity("spinproj-spectrum",
              "projection eigenvalues over an energy sector are +1, -1, 0, 0", MOVING_FRAME)
    def spectrum(self):
        for e, m_eps in ((1, self.fam.m_plus), (-1, self.fam.m_minus)):
            ranks = tuple(mat_rank(m_eps @ self.fam.projections[q]) for q in (1, -1, 0))
            if ranks != (1, 1, 2):
                return False, f"energy sign {e}: sector ranks {ranks}"
        # and each projector's image carries its own label as eigenvalue
        for q, proj in self.fam.projections.items():
            if self.fam.sigma_p @ proj != proj * q:
                return False, f"projection {q}: not an eigenvalue of its projector"
        return True

    @identity("dyad-reassembly", "each dyad rebuilds its projector as an outer product",
              MOVING_FRAME)
    def reassembly(self):
        for k, d in self.dyads.items():
            if d.column @ d.row != self.fam.deltas[k]:
                return False, f"state {k}"
        return True

    @identity("dyad-metric-row", "each dyad row is the signed metric conjugate of its column",
              MOVING_FRAME)
    def metric_row(self):
        eta, one = self.w.eta, ExactMatrix.identity(1)
        for k, d in self.dyads.items():
            bra = d.column.dagger() @ eta
            if d.row != bra * d.norm_sign:
                return False, f"state {k}: row is not the signed metric conjugate"
            if bra @ d.column != one * d.norm_sign:
                return False, f"state {k}: metric norm is not the recorded sign"
            if d.row @ d.column != one:
                return False, f"state {k}: row-column contraction is not one"
        return True

    @identity("dyad-norm-signs", "metric norm signs: +1 on spin-1 dyads, -1 on spin-0 dyads",
              MOVING_FRAME)
    def norm_signs(self):
        for k, d in self.dyads.items():
            want = 1 if k[1] == 1 else -1
            if d.norm_sign != want:
                return False, f"state {k}: sign {d.norm_sign}"
        return True

    @identity("eigen-equation", "every dyad satisfies the first-order momentum-space equation",
              MOVING_FRAME)
    def eigen_equation(self):
        for k, d in self.dyads.items():
            if (self.fam.p_slash @ d.column) * -GR_I != d.column * (self.m * k[0]):
                return False, f"state {k}"
        return True

    @identity("component-layout", "every dyad has the derivative component layout",
              MOVING_FRAME)
    def layout(self):
        # the layout as the fixed points of one matrix per energy sign eps: it
        # keeps the vector slots and rebuilds from them the scalar slot,
        # -(i eps p . psi)/m, and each bivector slot [mu nu],
        # i eps (p_mu psi_nu - p_nu psi_mu)/m
        fixed = {}
        for eps in (1, -1):
            ip = [c * GaussianRational(0, Fraction(eps) / self.p.m) for c in self.p.components()]
            terms = [((mu, mu), 1) for mu in IDX] + [((0, mu), -ip[mu - 1]) for mu in IDX]
            for mu, nu in BIVECTOR_PAIRS:
                pos = DIM11.position(BasisIndex.bivector(mu, nu))
                terms += [((pos, nu), ip[mu - 1]), ((pos, mu), -ip[nu - 1])]
            fixed[eps] = ExactMatrix.sparse(11, 11, terms)
        for k, d in self.dyads.items():
            if fixed[k[0]] @ d.column != d.column:
                return False, f"state {k}"
        return True

    @identity("spin0-no-bivector", "spin-0 dyads carry no bivector components", MOVING_FRAME)
    def spin0_bivector(self):
        for e in (1, -1):
            d = self.dyads[(e, 0, 0)]
            for pos in range(5, 11):
                if d.column[pos, 0]:
                    return False, f"energy sign {e}, slot {pos}"
        return True


# ---------------------------------------------------------------------------
# u31 suite

def _realises_structure_constants(constants, brackets, charges):
    """[Q_i, Q_j] == sum over k of f_ij^k Q_k for every basis pair i < j, as one product.

    constants is `structure_constants()`; charges and brackets hold the sixteen
    direction charges and the 120 brackets, in pair order, as matrix columns.
    """
    _, pairs, f = constants
    want = charges @ f
    if brackets == want:
        return True
    return False, "pair ({}, {})".format(*pairs[_first_column(brackets, want)])


def _in_column_order(m):
    """The nonzero entries ((row, column), value) of m, column by column."""
    return sorted(m.coeffs.items(), key=lambda e: e[0][::-1])


class U31(Suite):
    name = "u31"
    ctx = cached_property(lambda s: ModeContext(s.cfg.k0))
    h = cached_property(lambda s: hamiltonian(s.ctx))
    charges = cached_property(lambda s: conserved_charges(s.ctx))
    dirs = cached_property(lambda s: basis_directions())
    products = cached_property(lambda s: canonical_products())
    qs = cached_property(lambda s: tuple(s.products[i,] for i in range(4)))
    pis = cached_property(lambda s: tuple(s.products[i,] for i in range(4, 8)))
    constants = cached_property(lambda s: structure_constants())

    @cached_property
    def direction_charges(self):
        """The charge of each basis direction, in `basis_directions` order."""
        return [charge_combination(par, self.charges) for _, par in self.dirs]

    @cached_property
    def flows(self):
        """Direction name -> its canonical variation (delta q, delta pi), the trace's too."""
        return {name: infinitesimal_transform(self.qs, self.pis, par, self.ctx)
                for name, par in self.dirs + [("trace", trace_direction())]}

    @identity("canonical-brackets", "the canonical bracket table is exactly the Kronecker pattern")
    def canonical_table(self):
        for mu in range(1, 5):
            for nu in range(1, 5):
                want_c = GR_ONE if mu == nu else GR_ZERO
                b = poisson_bracket(q_sym(mu), pi_sym(nu))
                if b != QuadraticObservable.constant(want_c):
                    return False, f"(q{mu}, pi{nu})"
                if not poisson_bracket(q_sym(mu), q_sym(nu)).is_zero():
                    return False, f"(q{mu}, q{nu})"
                if not poisson_bracket(pi_sym(mu), pi_sym(nu)).is_zero():
                    return False, f"(pi{mu}, pi{nu})"
        return True

    hamiltonian_two_forms = identity(
        "hamiltonian-two-forms", "the quadratic and amplitude forms of the mode energy agree",
        check=lambda s: s.h == amplitude_form_hamiltonian(s.ctx))

    @identity("charges-conserved", "all seventeen quadratic charges commute with the mode energy")
    def conserved(self):
        for key, j in self.charges.items():
            if not poisson_bracket(j, self.h).is_zero():
                return False, f"charge {key}"
        return True

    unit_charge_counts_quanta = identity(
        "unit-charge-counts-quanta",
        "the phase charge equals the energy divided by the mode frequency",
        check=lambda s: s.charges[("unit",)] == s.h.scale(GR_ONE / GaussianRational(s.ctx.k0)))

    @identity("generator-closure",
              "matrix generator commutators stay inside the real sixteen-dimensional algebra")
    def generator_closure(self):
        # real coefficients mean the commutator stays in the real symmetry
        # algebra; complex ones would only land in its complexification
        names, pairs, f = self.constants
        for (k, p), c in _in_column_order(f):
            if not c.is_real():
                return False, "pair ({}, {}): complex component {}".format(*pairs[p], names[k])
        return True

    @identity("rotation-subalgebra", "antisymmetric generators close among themselves")
    def rotation_subalgebra(self):
        names, pairs, f = self.constants
        for (k, p), c in _in_column_order(f):
            (ni, nj), name = pairs[p], names[k]
            if not (ni.startswith("a") and nj.startswith("a")):
                continue
            if not name.startswith("a"):
                return False, f"({ni}, {nj}) produced component {name}"
            if not c.is_real():
                return False, f"({ni}, {nj}): complex coefficient on {name}"
        return True

    @identity("charge-flows", "each charge generates exactly its parameter's canonical variation")
    def charge_flows(self):
        for (name, _), g in zip(self.dirs, self.direction_charges):
            dq, dpi = self.flows[name]
            for mu in range(1, 5):
                if poisson_bracket(q_sym(mu), g) != dq[mu - 1]:
                    return False, f"direction {name}, coordinate {mu}"
                if poisson_bracket(pi_sym(mu), g) != dpi[mu - 1]:
                    return False, f"direction {name}, momentum {mu}"
        return True

    @identity("generating-function",
              "the generating function reproduces the variation in all sixteen directions")
    def genfunc(self):
        for name, par in self.dirs:
            dq1, dpi1 = self.flows[name]
            dq2, dpi2 = transform_from_generating_function(par, self.ctx, self.products)
            if any(a != b for a, b in zip(dq1, dq2)) or any(a != b for a, b in zip(dpi1, dpi2)):
                return False, f"direction {name}"
        return True

    @identity("trace-direction-trivial", "the pure-trace symmetric direction acts as the identity")
    def trace_trivial(self):
        dq, dpi = self.flows["trace"]
        return all(o.is_zero() for o in dq + dpi)

    @identity("hamiltonian-invariance",
              "the mode energy is first-order invariant along every direction")
    def h_invariance(self):
        # H(q + dq, pi + dpi) = H + grad H . (dq, dpi) + second order, and
        # (dq, dpi) is linear in the parameters, so the first-order claim
        # is that grad H . (dq, dpi) vanishes
        grad = [self.h.derivative(i) for i in range(8)]
        for name, (dq, dpi) in self.flows.items():
            step = sum((grad[i] * d for i, d in enumerate(dq + dpi)), QuadraticObservable())
            if not step.is_zero():
                return False, f"direction {name}"
        return True

    @identity("structure-constants",
              "charge brackets realise the matrix structure constants as a homomorphism")
    def structure_homomorphism(self):
        q = self.direction_charges
        return _realises_structure_constants(self.constants, *observable_columns(
            [poisson_bracket(a, b) for a, b in combinations(q, 2)], q))


# ---------------------------------------------------------------------------
# fock suite

def _first_column(got, want):
    """The first column in which two matrices of one shape differ."""
    return min(c for _, c in (got - want).coeffs)


class Fock(Suite):
    """The indefinite-metric Fock space, truncated at total degree N.

    A claim about every basis state is decided as one equation between
    sparse `ExactMatrix`es in the monomial basis: each ladder operator
    and bilinear is built once, by `ladder_matrix` or
    `BilinearOperator.matrix`, from the same action rule that `apply`
    and `apply_ladder` run on a single state; claims about sample states
    or commutator tables are equations on a few low-degree states.  A
    failing claim names the first basis state whose column differs.
    """

    name = "fock"
    n = property(lambda s: s.cfg.truncation)
    k0 = property(lambda s: s.cfg.k0)
    schemes = property(lambda s: SCHEMES[s.cfg.scheme])
    basis = cached_property(lambda s: monomial_basis(s.n))
    # the states below top degree, the first len(inner) basis states
    inner = cached_property(lambda s: [b for b in s.basis if sum(b) <= s.n - 1])
    constants = cached_property(lambda s: structure_constants())

    @cached_property
    def qc(self):
        return quantum_charges()

    @cached_property
    def keys(self):
        """The charge keys in the order the pair witnesses follow."""
        return sorted(self.qc, key=str)

    @cached_property
    def charge_brackets(self):
        """Column p is the table of [Q_a, Q_b] for the p-th key pair a < b: one product."""
        return commutator_tables([self.qc[k] for k in self.keys])

    def _pair(self, p):
        return "pair ({}, {})".format(*list(combinations(self.keys, 2))[p])

    @cached_property
    def energy(self):
        """Scheme -> (energy operator, vacuum), for each scheme this run checks."""
        return {scheme: (energy_operator(self.k0, scheme), FockPolyState.vacuum(self.n, scheme))
                for scheme in self.schemes}

    @property
    def p0(self):
        return self.energy[2][0]

    # grows with the truncation: prebuilt, it delays the fork, yet one process may use it
    @built_on_use
    def p0_matrix(self):
        return self.p0.matrix(self.basis, self.basis)

    def _ladder_commutators(self, modes, sign):
        """The modes whose A C - C A is not sign times the identity below top degree.

        Yields (mode, first failing state).
        """
        basis, inner, n = self.basis, self.inner, self.n
        want = ExactMatrix.sparse(len(basis), len(inner),
                                  (((c, c), sign) for c in range(len(inner))))
        for mode in modes:
            create = ladder_matrix(LadderOp(mode, "create"), inner, basis, n)
            annihilate = LadderOp(mode, "annihilate")
            comm = (ladder_matrix(annihilate, basis, basis, n) @ create
                    - create @ ladder_matrix(annihilate, inner, inner, n))
            if comm != want:
                yield mode, inner[_first_column(comm, want)]

    @identity("ladder-standard",
              "spatial ladder commutators act as the identity on every state", SCHEME_2)
    def ladder_standard(self):
        for mode, b in self._ladder_commutators((1, 2, 3), 1):
            return False, f"mode {mode}, state {b}"
        return True

    @identity("ladder-incorrect-sign",
              "the scalar-sector ladder commutator acts as minus the identity", SCHEME_2)
    def ladder_incorrect(self):
        for _, b in self._ladder_commutators((4,), -1):
            return False, f"state {b}"
        return True

    @identity("vacuum-annihilated", "every annihilation operator kills its scheme's vacuum")
    def vacua(self):
        for scheme, (_, vac) in self.energy.items():
            for mode in (1, 2, 3, 4):
                if not apply_ladder(LadderOp(mode, "annihilate"), vac).is_zero():
                    return False, f"scheme {scheme}, mode {mode}"
        return True

    @identity("gram-indefinite",
              "normalised norms alternate with the scalar-sector occupation", SCHEME_2)
    def gram2(self):
        c = self._off_spectrum(normalized_gram(self.n, 2)[1].transpose(),
                               [-1 if b[3] % 2 else 1 for b in self.basis])
        return c is None or (False, f"state {self.basis[c]}")

    @identity("gram-positive-scheme1",
              "the swapped-role scheme has an entirely positive Gram diagonal", SCHEME_1)
    def gram1(self):
        c = self._off_spectrum(normalized_gram(self.n, 1)[1].transpose(), [1] * len(self.basis))
        return c is None or (False, f"state {self.basis[c]}")

    def _off_spectrum(self, matrix, counts, unit=1):
        """The first basis state matrix does not scale by unit times its count, or None.

        Returns the state's index in the basis.  A diagonal is its own
        transpose, so on a transposed matrix this is the first differing row.
        """
        want = ExactMatrix.sparse(len(self.basis), len(self.basis),
                                  (((c, c), n) for c, n in enumerate(counts))) * unit
        return None if matrix == want else _first_column(matrix, want)

    @identity("energy-nonnegative",
              "the indefinite-metric energy spectrum is the nonnegative total count", SCHEME_2)
    def energy2(self):
        counts = [sum(b) for b in self.basis]
        # the eigenvalue k0 * count is negative where sign(k0) * count is
        sign = (self.k0 > 0) - (self.k0 < 0)
        bad = [c for c, m in enumerate(counts) if sign * m < 0][:1]
        c = self._off_spectrum(self.p0_matrix, counts, self.k0)
        if c is not None:
            bad.append(c)
        if bad:
            return False, f"state {self.basis[min(bad)]}"
        return True

    @identity("energy-indefinite-scheme1",
              "the swapped-role scheme exhibits negative energy eigenvalues", SCHEME_1)
    def energy1(self):
        counts = [b[0] + b[1] + b[2] - b[3] for b in self.basis]
        c = self._off_spectrum(self.energy[1][0].matrix(self.basis, self.basis), counts, self.k0)
        if c is not None:
            return False, f"state {self.basis[c]}"
        sign = (self.k0 > 0) - (self.k0 < 0)
        return any(sign * m < 0 for m in counts), "no negative eigenvalue appeared"

    @identity("vacuum-energy-zero", "the normal-ordered energy annihilates each vacuum")
    def vacuum_energy(self):
        for scheme, (p0, vac) in self.energy.items():
            if not p0.apply(vac).is_zero():
                return False, f"scheme {scheme}"
        return True

    @identity("charges-commute-energy",
              "all seventeen quantum charges commute with the energy operator", SCHEME_2)
    def charges_commute(self):
        for key, j in self.qc.items():
            if not j.commutator(self.p0).is_zero():
                return False, f"charge {key} (operator table)"
        # action route as an independent confirmation, one charge suffices
        j, p0 = self.qc[("sym", 1, 4)].matrix(self.basis, self.basis), self.p0_matrix
        jp, pj = j @ p0, p0 @ j
        if jp != pj:
            return False, f"mixed charge action on state {self.basis[_first_column(jp, pj)]}"
        return True

    @identity("unit-charge-number",
              "the phase charge counts the total quanta on every basis state", SCHEME_2)
    def number_charge(self):
        c = self._off_spectrum(self.qc[("unit",)].matrix(self.basis, self.basis),
                               [sum(b) for b in self.basis])
        return c is None or (False, f"state {self.basis[c]}")

    @identity("bracket-commutator-correspondence",
              "charge commutators equal i times the quantised classical brackets", SCHEME_2)
    def charge_table(self):
        k0 = self.k0
        cc = conserved_charges(ModeContext(k0))
        for key in self.keys:
            if quantize(cc[key], k0) != self.qc[key]:
                return False, f"charge {key}: quantised form differs from direct form"
        # the quantised charges are the direct ones, so their commutators are
        # charge_brackets; equal classical brackets are quantised once
        tables, want, error = {}, [], None
        for ka, kb in combinations(self.keys, 2):
            b = poisson_bracket(cc[ka], cc[kb])
            if b not in tables:
                try:
                    tables[b] = quantize(b, k0).table()
                except ValueError as exc:  # an earlier pair that differs fails first
                    error = exc
                    break
            want.append(tables[b])
        got, done = self.charge_brackets, len(want)
        want = mat_columns(want + [ExactMatrix.zeros(4)] * (got.cols - done)) * GR_I
        if got != want and (error is None or _first_column(got, want) < done):
            return False, self._pair(_first_column(got, want))
        if error is not None:
            raise error
        return True

    @identity("charge-matrix-structure",
              "quantum charge commutators realise the matrix structure constants directly",
              SCHEME_2)
    def charge_matrix_structure(self):
        # [Q_i, Q_j] = i Q_[i,j], compared as -i [Q_i, Q_j] = Q_[i,j]
        q = [charge_combination(par, self.qc) for _, par in basis_directions()]
        return _realises_structure_constants(self.constants, commutator_tables(q) * -GR_I,
                                             mat_columns([c.table() for c in q]))

    @identity("canonical-pair-correspondence",
              "the quantised coordinate-momentum commutator is i times the Kronecker delta",
              SCHEME_2)
    def canonical_pairs(self):
        # the first 8 states up to degree 2 (fewer below truncation 4), then
        # the basis prefixes one and two degrees above them
        top = min(self.n - 2, 2)
        spans = (monomial_basis(top)[:8], monomial_basis(top + 1), monomial_basis(top + 2))

        def xy(mode, step):
            """X = phase (A + C) and Y = phase (A - C) from spans[step] into the next span."""
            a, c = (ladder_matrix(LadderOp(mode, d), spans[step], spans[step + 1], self.n)
                    for d in ("annihilate", "create"))
            ph = covariant_ladder_phase(mode)
            return (a + c) * ph, (a - c) * ph

        first, second = ({mu: xy(mu, step) for mu in IDX} for step in (0, 1))
        samples, rows = spans[0], spans[2]
        unit = ExactMatrix.sparse(len(rows), len(samples),
                                  (((c, c), 1) for c in range(len(samples))))
        # [q, pi] carries a factor -i/2 relative to the bare commutator
        half = GaussianRational(0, Fraction(-1, 2))
        for mu, nu in product(IDX, IDX):
            got = (second[mu][0] @ first[nu][1] - second[nu][1] @ first[mu][0]) * half
            want = unit * (GR_I if mu == nu else 0)
            if got != want:
                return False, f"pair ({mu}, {nu}), state {samples[_first_column(got, want)]}"
        return True

    @identity("physical-decomposition",
              "states split into orthogonal positive-norm and scalar-excited parts", SCHEME_2)
    def physical_split(self):
        n = self.n
        # the deepest sample has degree 4; below that it drops to degree 2
        deep = (0, 1, 1, 2) if n >= 4 else (0, 1, 0, 1)
        samples = [
            FockPolyState({(2, 0, 0, 0): GR_ONE}, n, 2),
            FockPolyState({(1, 0, 0, 1): GR_ONE}, n, 2),
            FockPolyState({(1, 0, 0, 0): GR_ONE, (0, 0, 0, 1): GaussianRational(1, 1)}, n, 2),
            FockPolyState({deep: GaussianRational(Fraction(2, 3))}, n, 2),
        ]
        for s in samples:
            sp_, sn_ = decompose_physical(s)
            if sp_ + sn_ != s:
                return False, "split does not recompose"
            if inner_product(sp_, sn_):
                return False, "split parts are not orthogonal"
            if any(k[3] for k in sp_.coeffs) or any(not k[3] for k in sn_.coeffs):
                return False, "split parts are misclassified"
        return True

    @identity("truncation-exactness",
              "charge actions and commutators agree between this truncation and a wider one",
              SCHEME_2)
    def truncation_exact(self):
        # Every charge is a combination of the 16 elementary bilinears
        # a+_i a_j, with a coefficient table that bracket-commutator-
        # correspondence and charge-matrix-structure already check.  So each
        # elementary bilinear, as an operator, must equal its two ladder
        # steps, which enforce the cutoff.  Only on top-degree states can
        # the cutoff act, at this truncation and a wider one.
        qc, n = self.qc, self.n
        tops = [b for b in self.basis if sum(b) == n]
        below = [b for b in self.basis if sum(b) == n - 1]
        truncations = (n, n + 2)
        ops = {(i, j): BilinearOperator({(i, j): GR_ONE}).matrix(tops, tops)
               for i, j in product(IDX, IDX)}
        steps = [({i: ladder_matrix(LadderOp(i, "create"), below, tops, t) for i in IDX},
                  {j: ladder_matrix(LadderOp(j, "annihilate"), tops, below, t) for j in IDX})
                 for t in truncations]
        # equal ladder matrices at both truncations give equal products
        if steps[1] == steps[0]:
            steps.pop()
        for j in IDX:
            bad = []  # (first failing state, truncation, i): the order states are scanned in
            for t, (create, annihilate) in enumerate(steps):
                for i in IDX:
                    want = create[i] @ annihilate[j]
                    if ops[i, j] != want:
                        bad.append((_first_column(ops[i, j], want), t, i))
            if bad:
                c, t, i = min(bad)
                return False, f"bilinear ({i}, {j}), state {tops[c]}, truncation {truncations[t]}"
        # the matrices are exact only if no image is dropped: creation on a
        # top-degree state leaves the basis, by the cutoff at n and by the
        # row set at n + 2
        for t in truncations:
            for i in IDX:
                try:
                    ladder_matrix(LadderOp(i, "create"), tops, self.basis, t)
                except ValueError:
                    continue
                return False, f"creation {i} on the top-degree states, truncation {t}"
        # a bilinear with table T acts on the degree-1 states, in mode order,
        # as T S: so the commutators of the charges' actions there are the
        # commutator tables times S, which decides each table exactly
        ones = [tuple(int(m == i) for m in range(4)) for i in range(4)]
        acts = [qc[key].matrix(ones, ones) for key in self.keys]
        times_s = ExactMatrix.sparse(16, 16, (((4 * a + b, 4 * a + b), s) for a in range(4)
                                             for b, s in enumerate(METRIC_SIGNATURE)))
        got, want = mat_commutators(acts, acts), times_s @ self.charge_brackets
        return got == want or (False, self._pair(_first_column(got, want)))


# ---------------------------------------------------------------------------
# em suite

CS_A = (Fraction(3, 5), Fraction(4, 5))
CS_B = (Fraction(5, 13), Fraction(12, 13))


class Em(Suite):
    name = "em"
    trunc = property(lambda s: min(s.cfg.truncation, 4))
    charges = cached_property(lambda s: em_mod.su2_charges())
    h = cached_property(lambda s: em_mod.em_hamiltonian(s.cfg.k0))
    elements = cached_property(lambda s: _sample_u2_elements())

    @identity("su2-commutators", "the rotation charges close with the structure constant i")
    def su2(self):
        charges = self.charges
        for (i, j), k in {(1, 2): 3, (2, 3): 1, (3, 1): 2}.items():
            if charges[i].commutator(charges[j]) != charges[k].scale(GR_I):
                return False, f"pair ({i}, {j})"
            if charges[j].commutator(charges[i]) != charges[k].scale(-GR_I):
                return False, f"pair ({j}, {i})"
        return True

    rotations_commute_number = identity(
        "rotations-commute-number", "each rotation charge commutes with the photon-number charge",
        check=lambda s: all(s.charges[i].commutator(s.charges[0]).is_zero() for i in (1, 2, 3)))
    charges_conserved = identity(
        "charges-conserved", "all four charges commute with the two-mode energy",
        check=lambda s: all(s.charges[i].commutator(s.h).is_zero() for i in (0, 1, 2, 3)))
    hamiltonian_is_number = identity(
        "hamiltonian-is-number",
        "the two-mode energy is twice the frequency times the number charge",
        check=lambda s: s.h == s.charges[0].scale(GaussianRational(Fraction(s.cfg.k0) * 2)))

    @identity("u2-invariance",
              "conjugation by every sample group element fixes the energy coefficients")
    def invariance(self):
        i2 = ExactMatrix.identity(2)
        for name, u in self.elements:
            if u.conjugate_charge(i2) != i2:
                return False, f"element {name}"
        return True

    @identity("adjoint-homomorphism",
              "the charge rotation map preserves composition on the sample subgroup")
    def adjoint_homomorphism(self):
        table = {name: u.adjoint_rotation() for name, u in self.elements}
        for name, rot in table.items():
            for i in range(3):
                for j in range(3):
                    if not rot[i, j].is_real():
                        return False, f"element {name} has a complex adjoint entry"
        for n1, u1 in self.elements:
            for n2, u2 in self.elements:
                combined = u1.compose(u2).adjoint_rotation()
                if combined != table[n1] @ table[n2]:
                    return False, f"pair ({n1}, {n2})"
        return True

    @identity("stokes-one-photon", "single-photon polarization values are (1/2, 0, 0, +-1/2)")
    def stokes_photons(self):
        half = Fraction(1, 2)
        if em_mod.stokes_expectations(em_mod.one_photon(1, self.trunc)) != (half, 0, 0, half):
            return False, "first transverse mode"
        if em_mod.stokes_expectations(em_mod.one_photon(2, self.trunc)) != (half, 0, 0, -half):
            return False, "second transverse mode"
        return True

    stokes_vacuum = identity(
        "stokes-vacuum", "the vacuum has vanishing polarization values",
        check=lambda s: em_mod.stokes_expectations(
            em_mod.polarization_state({(0, 0): GR_ONE}, s.trunc)) == (0, 0, 0, 0))

    @identity("dual-rotation-matrix",
              "the dual rotation is the real two-component rotation by the half angle")
    def dual_matrix(self):
        d = em_mod.U2Element.dual_rotation(CS_A)
        return d.matrix == ExactMatrix([[CS_A[0], CS_A[1]], [-CS_A[1], CS_A[0]]])

    @identity("dual-group-law", "dual rotations compose by exact angle addition")
    def dual_group_law(self):
        for x, y in ((CS_A, CS_B), (CS_B, CS_A), (CS_A, CS_A)):
            lhs = em_mod.U2Element.dual_rotation(x).compose(em_mod.U2Element.dual_rotation(y))
            rhs = em_mod.U2Element.dual_rotation(em_mod.angle_sum(x, y))
            if lhs.matrix != rhs.matrix:
                return False, f"angles {x}, {y}"
        return True

    @identity("dual-stokes-rotation",
              "a dual rotation turns the polarization pair by the full angle")
    def dual_stokes(self):
        du = em_mod.U2Element.dual_rotation(CS_A)
        c, s = CS_A
        cos_t, sin_t = c * c - s * s, 2 * c * s
        trunc = self.trunc
        states = [em_mod.one_photon(1, trunc), em_mod.one_photon(2, trunc),
                  em_mod.polarization_state({(1, 0): GR_ONE, (0, 1): GaussianRational(1, 1)}, trunc),
                  em_mod.polarization_state({(2, 0): GR_ONE, (0, 2): GaussianRational(2)}, trunc)]
        turned = [du.conjugate_charge(t) for t in em_mod.STOKES_TABLES]
        for st in states:
            j0, j1, j2, j3 = em_mod.stokes_expectations(st)
            got = em_mod.stokes_expectations(st, turned)
            if got[0] != j0:
                return False, "number charge moved"
            if (got[3], got[1]) != (cos_t * j3 + sin_t * j1, -sin_t * j3 + cos_t * j1):
                return False, f"pair rotation failed on values {(j3, j1)}"
        return True

    @identity("dual-subgroup", "every dual rotation is an exactly unitary, real group element")
    def dual_subgroup(self):
        for x in (CS_A, CS_B, em_mod.angle_sum(CS_A, CS_B)):
            u = em_mod.U2Element.dual_rotation(x)
            if u.matrix.dagger() @ u.matrix != ExactMatrix.identity(2):
                return False, f"angle {x}"
            for i in range(2):
                for j in range(2):
                    if not u.matrix[i, j].is_real():
                        return False, f"angle {x}: entry not real"
        return True


def _sample_u2_elements():
    f = Fraction
    u = em_mod.U2Element
    base = [
        ("phase-3-4-5", u.from_params((f(3, 5), f(4, 5)), (0, 0, 1), (1, 0))),
        ("z-rotation", u.from_params((1, 0), (0, 0, 1), (f(5, 13), f(12, 13)))),
        ("x-rotation", u.from_params((1, 0), (1, 0, 0), (f(3, 5), f(4, 5)))),
        ("dual-3-4-5", u.dual_rotation((f(3, 5), f(4, 5)))),
        ("tilted-axis", u.from_params((f(5, 13), f(12, 13)), (f(3, 5), 0, f(4, 5)),
                                      (f(8, 17), f(15, 17)))),
        ("quarter-phase", u.from_params((0, 1), (0, 1, 0), (1, 0))),
    ]
    base.append(("composite", base[0][1].compose(base[3][1])))
    return base


SUITES = {cls.name: cls for cls in (Algebra, Projectors, U31, Fock, Em)}
ALL_SUITES = tuple(SUITES)
IDENTITIES = tuple(d for cls in SUITES.values() for d in cls.identities)
SUITE_RUNNERS = {name: partial(run_suite, name) for name in ALL_SUITES}
