"""Identity suites: every verifiable claim as a named, timed check.

Each suite function returns a list of IdentityRecord values in a fixed
order, so reports are deterministic.  A check either passes, fails with
a witness describing the first counterexample, or is skipped with a
reason (only the spin-direction identities skip, in the rest frame).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exact import (ExactMatrix, GR_I, GR_MINUS_ONE, GR_ONE, GR_ZERO,
                    GaussianRational, mat_commutator, mat_rank,
                    minimal_poly_check)
from . import em as em_mod
from . import modes as modes_mod
from .epsilon import BIVECTOR_PAIRS, DIM4, DIM5, DIM10, DIM11, identity_of
from .epsilon import epsilon as eps_unit
from .epsilon import epsilon_delta
from .fock import (FockPolyState, LadderOp, apply_covariant, apply_ladder,
                   decompose_physical, energy_operator, inner_product,
                   monomial_basis, normalized_gram, quantize,
                   quantum_charge_combination, quantum_charges)
from .modes import (ModeContext, amplitude_form_hamiltonian,
                    basis_directions, charge_for_params, conserved_charges,
                    decompose_generator, generator_matrix, hamiltonian,
                    infinitesimal_transform, params_scaled, pi_sym,
                    poisson_bracket, q_sym, trace_direction,
                    transform_from_generating_function)
from .projectors import (SPIN_STATES, FourMomentum, ProjectorFamily,
                         dyad_factorize, energy_projector, p_slash,
                         spin_projection_op, spin_projection_projector,
                         spin_square_projector, spin_squared,
                         verify_first_order_solution)
from .wave import (alpha_lorentz_bracket_rhs, cubic_alpha_holds,
                   lorentz_bracket_rhs, pdk_holds, wave_matrices)

ALL_SUITES = ("algebra", "projectors", "u31", "fock", "em")


@dataclass
class IdentityRecord:
    suite: str
    ident: str
    claim: str
    status: str  # "pass" | "fail" | "skip"
    witness: str | None = None
    reason: str | None = None
    elapsed_ms: float | None = None


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


# ---------------------------------------------------------------------------
# algebra suite

def run_algebra_suite(cfg) -> list:
    r = Recorder("algebra")
    w = wave_matrices()
    idx = (1, 2, 3, 4)

    def product_rule():
        labels = DIM11.labels
        units = {(a, b): eps_unit(a, b, DIM11) for a in labels for b in labels}
        zero = ExactMatrix.zeros(11)
        for (a, b), mab in units.items():
            for (c, d), mcd in units.items():
                want = units[(a, d)] if epsilon_delta(b, c) else zero
                if mab @ mcd != want:
                    return False, f"basis pair ({a},{b}) x ({c},{d})"
        return True
    r.check("unit-product-rule",
            "matrix-unit product rule holds for all 14641 ordered basis pairs",
            product_rule)

    def unit_trace():
        for a in DIM11.labels:
            for b in DIM11.labels:
                want = GR_ONE if a == b else GR_ZERO
                if eps_unit(a, b, DIM11).trace() != want:
                    return False, f"trace of unit ({a},{b})"
        return True
    r.check("unit-trace", "trace of a basis unit equals the label delta", unit_trace)

    def completeness():
        for space in (DIM4, DIM5, DIM10, DIM11):
            identity_of(space)  # raises on mismatch
        return True
    r.check("unit-completeness",
            "summed diagonal units rebuild the identity in every subspace view",
            completeness)

    def alpha_split():
        from .wave import build_alpha, build_beta0, build_beta1, embed_dim10, embed_dim5
        for nu in idx:
            if build_alpha(nu) != embed_dim10(build_beta1(nu)) + embed_dim5(build_beta0(nu)):
                return False, f"alpha_{nu}"
        return True
    r.check("alpha-block-split",
            "each 11-dim wave matrix is the embedded sum of its 10-dim and 5-dim blocks",
            alpha_split)

    for name, betas in (("beta1", w.beta1), ("beta0", w.beta0)):
        def trilinear(betas=betas):
            for t in product(idx, repeat=3):
                if not pdk_holds(betas, *t):
                    return False, f"triple {t}"
            return True
        dim = "10-dim spin-1" if name == "beta1" else "5-dim spin-0"
        r.check(f"trilinear-{name}",
                f"trilinear wave-matrix relation holds for all 64 triples on the {dim} block",
                trilinear)

    def alpha_negative():
        for t in product(idx, repeat=3):
            if not pdk_holds(w.alpha, *t):
                return True
        return False, "the 11-dim matrices unexpectedly satisfy the trilinear relation"
    r.check("trilinear-alpha-negative",
            "the 11-dim matrices violate the trilinear relation for at least one triple",
            alpha_negative)

    def cubic():
        for t in product(idx, repeat=3):
            if not cubic_alpha_holds(w.alpha, *t):
                return False, f"triple {t}"
        return True
    r.check("cubic-alpha",
            "six-term symmetrised cubic relation holds for all 64 triples",
            cubic)

    def rotation_closure():
        for rs in product(idx, repeat=2):
            if rs[0] == rs[1]:
                continue
            for mn in product(idx, repeat=2):
                if mn[0] == mn[1]:
                    continue
                lhs = mat_commutator(w.lorentz_signed(*rs), w.lorentz_signed(*mn))
                if lhs != lorentz_bracket_rhs(w, rs[0], rs[1], mn[0], mn[1]):
                    return False, f"generator pair {rs}, {mn}"
        return True
    r.check("rotation-closure",
            "rotation generators close with the standard structure constants",
            rotation_closure)

    def alpha_rotation():
        for lam in idx:
            for mn in BIVECTOR_PAIRS:
                lhs = mat_commutator(w.alpha[lam], w.lorentz[mn])
                if lhs != alpha_lorentz_bracket_rhs(w, lam, *mn):
                    return False, f"(lambda, pair) = ({lam}, {mn})"
        return True
    r.check("alpha-rotation-bracket",
            "wave matrices transform as a four-vector under the rotation generators",
            alpha_rotation)

    def scalar_slot():
        for mn in BIVECTOR_PAIRS:
            j = w.lorentz[mn]
            for a in range(11):
                if j[0, a] or j[a, 0]:
                    return False, f"pair {mn}, slot {a}"
        return True
    r.check("rotation-scalar-slot",
            "rotation generators leave the scalar component untouched",
            scalar_slot)

    r.check("eta-anticommutes-spatial",
            "the metric matrix anticommutes with the three spatial wave matrices",
            lambda: all((w.eta @ w.alpha[i]) == -(w.alpha[i] @ w.eta) for i in (1, 2, 3)))
    r.check("eta-commutes-time",
            "the metric matrix commutes with the fourth wave matrix",
            lambda: (w.eta @ w.alpha[4]) == (w.alpha[4] @ w.eta))
    r.check("eta-hermitian", "the metric matrix is Hermitian",
            lambda: w.eta == w.eta.dagger())
    r.check("eta-involution", "the metric matrix squares to the identity",
            lambda: w.eta @ w.eta == ExactMatrix.identity(11))

    def eta1_block():
        ok = all((w.eta1 @ w.beta1[i]) == -(w.beta1[i] @ w.eta1) for i in (1, 2, 3))
        return ok and (w.eta1 @ w.beta1[4]) == (w.beta1[4] @ w.eta1)
    r.check("eta-spin1-block",
            "the 10-dim metric block hermitianizes the spin-1 system the same way",
            eta1_block)

    def beta4_squared():
        b = w.beta1[4] @ w.beta1[4]
        for i in range(10):
            for j in range(10):
                e = b[i, j]
                if i == j:
                    if e != GR_ZERO and e != GR_ONE:
                        return False, f"diagonal entry {i} = {e}"
                elif e:
                    return False, f"off-diagonal entry ({i},{j})"
        return True
    r.check("beta4-squared-diagonal",
            "the squared fourth spin-1 matrix is diagonal with entries 0 and 1",
            beta4_squared)
    return r.records


# ---------------------------------------------------------------------------
# projectors suite

def run_projectors_suite(cfg) -> list:
    r = Recorder("projectors")
    w = wave_matrices()
    p = FourMomentum.from_mass_and_momentum(cfg.mass, cfg.momentum)
    ps = p_slash(p, w)
    m = GaussianRational(p.m)
    ident = ExactMatrix.identity(11)

    r.check("momentum-shell",
            "the four-momentum satisfies the exact mass-shell constraint",
            lambda: p.p0 ** 2 == p.p1 ** 2 + p.p2 ** 2 + p.p3 ** 2 + p.m ** 2)
    r.check("pslash-cubic",
            "the momentum contraction cubes to its invariant square times itself",
            lambda: ps @ ps @ ps == ps * GaussianRational(p.p_squared))
    r.check("pslash-traceless", "the momentum contraction is traceless",
            lambda: not ps.trace())

    m_eps = {1: energy_projector(p, 1, w), -1: energy_projector(p, -1, w)}
    r.check("energy-idempotent", "both energy projectors are idempotent",
            lambda: all(m_eps[e] @ m_eps[e] == m_eps[e] for e in (1, -1)))
    r.check("energy-orthogonal", "opposite energy projectors annihilate each other",
            lambda: (m_eps[1] @ m_eps[-1]).is_zero() and (m_eps[-1] @ m_eps[1]).is_zero())
    r.check("energy-rank",
            "each energy projector has rank 4, the field's degrees of freedom",
            lambda: (mat_rank(m_eps[1]), mat_rank(m_eps[-1])) == (4, 4))

    def energy_completeness():
        total = m_eps[1] + m_eps[-1]
        if total != (ps @ ps) * (GR_MINUS_ONE / (m * m)):
            return False, "sum differs from the normalised squared contraction"
        return total @ total == total
    r.check("energy-completeness",
            "the energy projectors sum to the idempotent squared-contraction form",
            energy_completeness)

    s2 = spin_squared(p, w)

    def levi_civita_route():
        comps = p.components()
        wvec = {}
        for mu in (1, 2, 3, 4):
            acc = ExactMatrix.zeros(11)
            for nu in (1, 2, 3, 4):
                pn = comps[nu - 1]
                if not pn:
                    continue
                for (a, b), sgn in _EPS4_TABLE.get((mu, nu), ()):
                    acc = acc + w.lorentz_signed(a, b) * (pn * GaussianRational(sgn))
            wvec[mu] = acc / (m * GaussianRational(2))
        total = ExactMatrix.zeros(11)
        for mu in (1, 2, 3, 4):
            total = total + wvec[mu] @ wvec[mu]
        return total == s2
    r.check("spin2-dual-route",
            "the squared-spin operator agrees with its explicit Levi-Civita construction",
            levi_civita_route)

    r.check("spin2-minimal",
            "the squared-spin operator annihilates (x)(x - 2)",
            lambda: minimal_poly_check(s2, [GR_ZERO, GaussianRational(2)]))
    r.check("spin2-both-sectors",
            "both spin sectors are present: the operator is neither 0 nor 2",
            lambda: (not s2.is_zero()) and s2 != ident * GaussianRational(2))

    if p.is_at_rest():
        reason = "rest-frame: spin direction undefined"
        for ident_name, claim in (
                ("spinproj-minimal", "the spin-projection operator annihilates (x)(x-1)(x+1)"),
                ("spin2-absorbs-projection", "half the squared spin absorbs the projection operator"),
                ("spinproj-commutes", "the spin-projection operator commutes with the momentum contraction"),
                ("projector-commutators", "all spin and energy projector commutators vanish"),
                ("state-idempotent", "every pure-state projector is idempotent"),
                ("state-orthogonal", "pure-state projectors are pairwise orthogonal"),
                ("state-rank-one", "every pure-state projector has rank one"),
                ("state-completeness", "the four pure states rebuild each energy projector"),
                ("spinproj-spectrum", "projection eigenvalues over an energy sector are +1, -1, 0, 0"),
                ("dyad-reassembly", "each dyad rebuilds its projector as an outer product"),
                ("dyad-metric-row", "each dyad row is the signed metric conjugate of its column"),
                ("dyad-norm-signs", "metric norm signs: +1 on spin-1 dyads, -1 on spin-0 dyads"),
                ("eigen-equation", "every dyad satisfies the first-order momentum-space equation"),
                ("component-layout", "every dyad has the derivative component layout"),
                ("spin0-no-bivector", "spin-0 dyads carry no bivector components")):
            r.skip(ident_name, claim, reason)
        return r.records

    sp = spin_projection_op(p, w)
    r.check("spinproj-minimal",
            "the spin-projection operator annihilates (x)(x-1)(x+1)",
            lambda: minimal_poly_check(sp, [GR_ZERO, GR_ONE, GR_MINUS_ONE]))
    r.check("spin2-absorbs-projection",
            "half the squared spin absorbs the projection operator",
            lambda: (s2 / GaussianRational(2)) @ sp == sp)
    r.check("spinproj-commutes",
            "the spin-projection operator commutes with the momentum contraction",
            lambda: mat_commutator(sp, ps).is_zero())

    s2proj = {s: spin_square_projector(s2, s) for s in (0, 1)}
    spproj = {q: spin_projection_projector(sp, q) for q in (-1, 0, 1)}

    def commutator_block():
        for name, a in (("S2(0)", s2proj[0]), ("S2(1)", s2proj[1]),
                        ("S(+1)", spproj[1]), ("S(-1)", spproj[-1]), ("S(0)", spproj[0])):
            if not mat_commutator(a, ps).is_zero():
                return False, f"[{name}, pslash]"
        for qn, q in (("S(+1)", spproj[1]), ("S(-1)", spproj[-1]), ("S(0)", spproj[0])):
            for sn, s in (("S2(0)", s2proj[0]), ("S2(1)", s2proj[1])):
                if not mat_commutator(s, q).is_zero():
                    return False, f"[{sn}, {qn}]"
        return True
    r.check("projector-commutators",
            "all spin and energy projector commutators vanish",
            commutator_block)

    fam = ProjectorFamily.build(p, w)
    keys = [(e, s, q) for e in (1, -1) for (s, q) in SPIN_STATES]

    def idempotent():
        for k in keys:
            d = fam.deltas[k]
            if d @ d != d:
                return False, f"state {k}"
        return True
    r.check("state-idempotent", "every pure-state projector is idempotent", idempotent)

    def orthogonal():
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if not (fam.deltas[a] @ fam.deltas[b]).is_zero():
                    return False, f"pair {a}, {b}"
        return True
    r.check("state-orthogonal", "pure-state projectors are pairwise orthogonal", orthogonal)

    def rank_one():
        for k in keys:
            if mat_rank(fam.deltas[k]) != 1:
                return False, f"state {k}"
        return True
    r.check("state-rank-one", "every pure-state projector has rank one", rank_one)

    def completeness():
        for e in (1, -1):
            total = ExactMatrix.zeros(11)
            for (s, q) in SPIN_STATES:
                total = total + fam.deltas[(e, s, q)]
            if total != m_eps[e]:
                return False, f"energy sign {e}"
        return True
    r.check("state-completeness",
            "the four pure states rebuild each energy projector", completeness)

    def spectrum():
        for e in (1, -1):
            ranks = (mat_rank(m_eps[e] @ spproj[1]), mat_rank(m_eps[e] @ spproj[-1]),
                     mat_rank(m_eps[e] @ spproj[0]))
            if ranks != (1, 1, 2):
                return False, f"energy sign {e}: sector ranks {ranks}"
        return True
    r.check("spinproj-spectrum",
            "projection eigenvalues over an energy sector are +1, -1, 0, 0", spectrum)

    dyads = {k: dyad_factorize(fam.deltas[k], labels=k, w=w) for k in keys}

    def reassembly():
        from .exact import vec_outer
        for k, d in dyads.items():
            if vec_outer(d.psi, d.psi_bar) != fam.deltas[k]:
                return False, f"state {k}"
        return True
    r.check("dyad-reassembly",
            "each dyad rebuilds its projector as an outer product", reassembly)

    def metric_row():
        from .exact import mat_vec, vec_dagger, vec_dot, vec_mat, vec_scale
        for k, d in dyads.items():
            sign = GaussianRational(d.norm_sign)
            if d.psi_bar != vec_scale(vec_mat(vec_dagger(d.psi), w.eta), sign):
                return False, f"state {k}: row is not the signed metric conjugate"
            if vec_dot(vec_dagger(d.psi), mat_vec(w.eta, d.psi)) != sign:
                return False, f"state {k}: metric norm is not the recorded sign"
            if vec_dot(d.psi_bar, d.psi) != GR_ONE:
                return False, f"state {k}: row-column contraction is not one"
        return True
    r.check("dyad-metric-row",
            "each dyad row is the signed metric conjugate of its column", metric_row)

    def norm_signs():
        for k, d in dyads.items():
            want = 1 if k[1] == 1 else -1
            if d.norm_sign != want:
                return False, f"state {k}: sign {d.norm_sign}"
        return True
    r.check("dyad-norm-signs",
            "metric norm signs: +1 on spin-1 dyads, -1 on spin-0 dyads", norm_signs)

    def eigen_equation():
        from .exact import mat_vec, vec_scale
        for k, d in dyads.items():
            lhs = vec_scale(mat_vec(ps, d.psi), -GR_I)
            if lhs != vec_scale(d.psi, GaussianRational(k[0]) * m):
                return False, f"state {k}"
        return True
    r.check("eigen-equation",
            "every dyad satisfies the first-order momentum-space equation", eigen_equation)

    def layout():
        for k, d in dyads.items():
            if not verify_first_order_solution(d, p, k[0], w):
                return False, f"state {k}"
        return True
    r.check("component-layout",
            "every dyad has the derivative component layout", layout)

    def spin0_bivector():
        for e in (1, -1):
            d = dyads[(e, 0, 0)]
            for pos in range(5, 11):
                if d.psi[pos]:
                    return False, f"energy sign {e}, slot {pos}"
        return True
    r.check("spin0-no-bivector",
            "spin-0 dyads carry no bivector components", spin0_bivector)
    return r.records


_EPS4_TABLE = {}
for _mu in (1, 2, 3, 4):
    for _nu in (1, 2, 3, 4):
        if _mu == _nu:
            continue
        entries = []
        rest = [x for x in (1, 2, 3, 4) if x not in (_mu, _nu)]
        for (_a, _b) in ((rest[0], rest[1]), (rest[1], rest[0])):
            perm = (_mu, _nu, _a, _b)
            lst = list(perm)
            sgn = 1
            for _i in range(4):
                for _j in range(3 - _i):
                    if lst[_j] > lst[_j + 1]:
                        lst[_j], lst[_j + 1] = lst[_j + 1], lst[_j]
                        sgn = -sgn
            entries.append(((_a, _b), sgn))
        _EPS4_TABLE[(_mu, _nu)] = tuple(entries)


# ---------------------------------------------------------------------------
# u31 suite

def run_u31_suite(cfg) -> list:
    r = Recorder("u31")
    ctx = ModeContext(cfg.k0)
    h = hamiltonian(ctx)
    charges = conserved_charges(ctx)
    qs = tuple(q_sym(mu) for mu in range(1, 5))
    pis = tuple(pi_sym(mu) for mu in range(1, 5))

    def canonical_table():
        for mu in range(1, 5):
            for nu in range(1, 5):
                want_c = GR_ONE if mu == nu else GR_ZERO
                b = poisson_bracket(q_sym(mu), pi_sym(nu))
                if b != (modes_mod.QuadraticObservable.constant(want_c) if want_c else modes_mod.QuadraticObservable.zero()):
                    return False, f"(q{mu}, pi{nu})"
                if not poisson_bracket(q_sym(mu), q_sym(nu)).is_zero():
                    return False, f"(q{mu}, q{nu})"
                if not poisson_bracket(pi_sym(mu), pi_sym(nu)).is_zero():
                    return False, f"(pi{mu}, pi{nu})"
        return True
    r.check("canonical-brackets",
            "the canonical bracket table is exactly the Kronecker pattern",
            canonical_table)

    r.check("hamiltonian-two-forms",
            "the quadratic and amplitude forms of the mode energy agree",
            lambda: h == amplitude_form_hamiltonian(ctx))

    def conserved():
        for key, j in charges.items():
            if not poisson_bracket(j, h).is_zero():
                return False, f"charge {key}"
        return True
    r.check("charges-conserved",
            "all seventeen quadratic charges commute with the mode energy",
            conserved)

    r.check("unit-charge-counts-quanta",
            "the phase charge equals the energy divided by the mode frequency",
            lambda: charges[("unit",)] == h.scale(GR_ONE / GaussianRational(ctx.k0)))

    ndirs = basis_directions(jet=False)

    amats = [(name, generator_matrix(par)) for name, par in ndirs]

    def generator_closure():
        # real coefficients mean the commutator stays in the real symmetry
        # algebra; complex ones would only land in its complexification
        for i, (ni, ai) in enumerate(amats):
            for nj, aj in amats[i + 1:]:
                coeffs = decompose_generator(mat_commutator(ai, aj))
                for name, c in coeffs.items():
                    if c and not c.is_real():
                        return False, f"pair ({ni}, {nj}): complex component {name}"
        return True
    r.check("generator-closure",
            "matrix generator commutators stay inside the real sixteen-dimensional algebra",
            generator_closure)

    def rotation_subalgebra():
        anti = [(name, a) for name, a in amats if name.startswith("a")]
        for i, (ni, ai) in enumerate(anti):
            for nj, aj in anti[i + 1:]:
                coeffs = decompose_generator(mat_commutator(ai, aj))
                for name, c in coeffs.items():
                    if c and not name.startswith("a"):
                        return False, f"({ni}, {nj}) produced component {name}"
                    if c and not c.is_real():
                        return False, f"({ni}, {nj}): complex coefficient on {name}"
        return True
    r.check("rotation-subalgebra",
            "antisymmetric generators close among themselves",
            rotation_subalgebra)

    def charge_flows():
        for name, par in ndirs:
            g = charge_for_params(par, ctx)
            dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
            for mu in range(1, 5):
                if poisson_bracket(q_sym(mu), g) != dq[mu - 1]:
                    return False, f"direction {name}, coordinate {mu}"
                if poisson_bracket(pi_sym(mu), g) != dpi[mu - 1]:
                    return False, f"direction {name}, momentum {mu}"
        return True
    r.check("charge-flows",
            "each charge generates exactly its parameter's canonical variation",
            charge_flows)

    jdirs = basis_directions(jet=True)

    def genfunc():
        for name, par in jdirs:
            dq1, dpi1 = infinitesimal_transform(qs, pis, par, ctx)
            dq2, dpi2 = transform_from_generating_function(par, ctx)
            if any(a != b for a, b in zip(dq1, dq2)) or any(a != b for a, b in zip(dpi1, dpi2)):
                return False, f"direction {name}"
        return True
    r.check("generating-function",
            "the generating function reproduces the variation in all sixteen directions",
            genfunc)

    def trace_trivial():
        par = trace_direction(jet=True)
        dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
        return all(o.is_zero() for o in dq + dpi)
    r.check("trace-direction-trivial",
            "the pure-trace symmetric direction acts as the identity",
            trace_trivial)

    def h_invariance():
        for name, par in jdirs + [("trace", trace_direction(jet=True))]:
            dq, dpi = infinitesimal_transform(qs, pis, par, ctx)
            mapping = {}
            for mu in range(1, 5):
                mapping[mu - 1] = q_sym(mu) + dq[mu - 1]
                mapping[3 + mu] = pi_sym(mu) + dpi[mu - 1]
            if h.substitute_linear(mapping) != h:
                return False, f"direction {name}"
        return True
    r.check("hamiltonian-invariance",
            "the mode energy is first-order invariant along every direction",
            h_invariance)

    def structure_constants():
        gmap = [(name, charge_for_params(par, ctx)) for name, par in ndirs]
        for i, (ni, ai) in enumerate(amats):
            gi = gmap[i][1]
            for off, (nj, aj) in enumerate(amats[i + 1:]):
                gj = gmap[i + 1 + off][1]
                coeffs = decompose_generator(mat_commutator(ai, aj))
                rebuilt = params_scaled(ndirs, [coeffs[n] for n, _ in ndirs])
                if poisson_bracket(gi, gj) != charge_for_params(rebuilt, ctx):
                    return False, f"pair ({ni}, {nj})"
        return True
    r.check("structure-constants",
            "charge brackets realise the matrix structure constants as a homomorphism",
            structure_constants)
    return r.records


# ---------------------------------------------------------------------------
# fock suite

def run_fock_suite(cfg) -> list:
    r = Recorder("fock")
    n = cfg.truncation
    k0 = cfg.k0
    schemes = {"1": (1,), "2": (2,), "both": (1, 2)}[cfg.scheme]
    basis = monomial_basis(n)
    inner = [b for b in basis if sum(b) <= n - 1]

    if 2 in schemes:
        def ladder_standard():
            for mode in (1, 2, 3):
                c, a = LadderOp(mode, "create"), LadderOp(mode, "annihilate")
                for b in inner:
                    s = FockPolyState.basis_state(b, n, 2)
                    comm = apply_ladder(a, apply_ladder(c, s)) - apply_ladder(c, apply_ladder(a, s))
                    if comm != s:
                        return False, f"mode {mode}, state {b}"
            return True
        r.check("ladder-standard",
                "spatial ladder commutators act as the identity on every state",
                ladder_standard)

        def ladder_incorrect():
            c, a = LadderOp(4, "create"), LadderOp(4, "annihilate")
            for b in inner:
                s = FockPolyState.basis_state(b, n, 2)
                comm = apply_ladder(a, apply_ladder(c, s)) - apply_ladder(c, apply_ladder(a, s))
                if comm != s.scale(GR_MINUS_ONE):
                    return False, f"state {b}"
            return True
        r.check("ladder-incorrect-sign",
                "the scalar-sector ladder commutator acts as minus the identity",
                ladder_incorrect)

    def vacua():
        for scheme in schemes:
            vac = FockPolyState.vacuum(n, scheme)
            for mode in (1, 2, 3, 4):
                if not apply_ladder(LadderOp(mode, "annihilate"), vac).is_zero():
                    return False, f"scheme {scheme}, mode {mode}"
        return True
    r.check("vacuum-annihilated",
            "every annihilation operator kills its scheme's vacuum",
            vacua)

    if 2 in schemes:
        def gram2():
            bas, g = normalized_gram(n, scheme=2)
            for i, b in enumerate(bas):
                want = GR_ONE if b[3] % 2 == 0 else GR_MINUS_ONE
                if g[i, i] != want:
                    return False, f"state {b}"
                for j in range(len(bas)):
                    if j != i and g[i, j]:
                        return False, f"off-diagonal ({b}, {bas[j]})"
            return True
        r.check("gram-indefinite",
                "normalised norms alternate with the scalar-sector occupation",
                gram2)

    if 1 in schemes:
        def gram1():
            bas, g = normalized_gram(n, scheme=1)
            for i in range(len(bas)):
                if g[i, i] != GR_ONE:
                    return False, f"state {bas[i]}"
            return True
        r.check("gram-positive-scheme1",
                "the swapped-role scheme has an entirely positive Gram diagonal",
                gram1)

    if 2 in schemes:
        def energy2():
            p0 = energy_operator(k0, 2)
            for b in basis:
                s = FockPolyState.basis_state(b, n, 2)
                lam = Fraction(k0) * sum(b)
                if lam < 0 or p0.apply(s) != s.scale(GaussianRational(lam)):
                    return False, f"state {b}"
            return True
        r.check("energy-nonnegative",
                "the indefinite-metric energy spectrum is the nonnegative total count",
                energy2)

    if 1 in schemes:
        def energy1():
            p0 = energy_operator(k0, 1)
            saw_negative = False
            for b in basis:
                s = FockPolyState.basis_state(b, n, 1)
                lam = Fraction(k0) * (b[0] + b[1] + b[2] - b[3])
                if p0.apply(s) != s.scale(GaussianRational(lam)):
                    return False, f"state {b}"
                if lam < 0:
                    saw_negative = True
            return saw_negative, "no negative eigenvalue appeared"
        r.check("energy-indefinite-scheme1",
                "the swapped-role scheme exhibits negative energy eigenvalues",
                energy1)

    def vacuum_energy():
        for scheme in schemes:
            vac = FockPolyState.vacuum(n, scheme)
            if not energy_operator(k0, scheme).apply(vac).is_zero():
                return False, f"scheme {scheme}"
        return True
    r.check("vacuum-energy-zero",
            "the normal-ordered energy annihilates each vacuum",
            vacuum_energy)

    if 2 in schemes:
        qc = quantum_charges(k0, 2)
        p0 = energy_operator(k0, 2)

        def charges_commute():
            for key, j in qc.items():
                if not j.commutator(p0).is_zero():
                    return False, f"charge {key} (operator table)"
            # action route as an independent confirmation, one charge suffices
            j = qc[("sym", 1, 4)]
            for b in basis:
                s = FockPolyState.basis_state(b, n, 2)
                if j.apply(p0.apply(s)) != p0.apply(j.apply(s)):
                    return False, f"mixed charge action on state {b}"
            return True
        r.check("charges-commute-energy",
                "all seventeen quantum charges commute with the energy operator",
                charges_commute)

        def number_charge():
            j = qc[("unit",)]
            for b in basis:
                s = FockPolyState.basis_state(b, n, 2)
                if j.apply(s) != s.scale(GaussianRational(sum(b))):
                    return False, f"state {b}"
            return True
        r.check("unit-charge-number",
                "the phase charge counts the total quanta on every basis state",
                number_charge)

        def charge_table():
            ctx = ModeContext(k0)
            cc = conserved_charges(ctx)
            keys = sorted(cc.keys(), key=str)
            qmap = {key: quantize(cc[key], k0, 2) for key in keys}
            for key in keys:
                if qmap[key] != qc[key]:
                    return False, f"charge {key}: quantised form differs from direct form"
            for i, ka in enumerate(keys):
                for kb in keys[i + 1:]:
                    lhs = qmap[ka].commutator(qmap[kb])
                    rhs = quantize(poisson_bracket(cc[ka], cc[kb]), k0, 2).scale(GR_I)
                    if lhs != rhs:
                        return False, f"pair ({ka}, {kb})"
            return True
        r.check("bracket-commutator-correspondence",
                "charge commutators equal i times the quantised classical brackets",
                charge_table)

        def charge_matrix_structure():
            ndirs = basis_directions(jet=False)
            qdirs = [(name, quantum_charge_combination(par, qc)) for name, par in ndirs]
            mats = [generator_matrix(par) for _, par in ndirs]
            for i, (ni, qi) in enumerate(qdirs):
                for off, (nj, qj) in enumerate(qdirs[i + 1:]):
                    coeffs = decompose_generator(
                        mat_commutator(mats[i], mats[i + 1 + off]))
                    rebuilt = params_scaled(ndirs, [coeffs[nm] for nm, _ in ndirs])
                    want = quantum_charge_combination(rebuilt, qc).scale(GR_I)
                    if qi.commutator(qj) != want:
                        return False, f"pair ({ni}, {nj})"
            return True
        r.check("charge-matrix-structure",
                "quantum charge commutators realise the matrix structure constants directly",
                charge_matrix_structure)

        def canonical_pairs():
            deep = [b for b in basis if sum(b) <= n - 2][:8]
            for mu in (1, 2, 3, 4):
                for nu in (1, 2, 3, 4):
                    for b in deep:
                        s = FockPolyState.basis_state(b, n, 2)

                        def x(state, mode=mu):
                            return apply_covariant(mode, False, state) + apply_covariant(mode, True, state)

                        def y(state, mode=nu):
                            return apply_covariant(mode, False, state) - apply_covariant(mode, True, state)

                        comm = x(y(s)) - y(x(s))
                        # [q, pi] carries a factor -i/2 relative to this bare commutator
                        got = comm.scale(GaussianRational(0, Fraction(-1, 2)))
                        want = s.scale(GR_I) if mu == nu else s.scale(GR_ZERO)
                        if got != want:
                            return False, f"pair ({mu}, {nu}), state {b}"
            return True
        r.check("canonical-pair-correspondence",
                "the quantised coordinate-momentum commutator is i times the Kronecker delta",
                canonical_pairs)

        def physical_split():
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
        r.check("physical-decomposition",
                "states split into orthogonal positive-norm and scalar-excited parts",
                physical_split)

        def truncation_exact():
            keys = sorted(qc.keys(), key=str)
            wide = quantum_charges(k0, 2)
            for key in keys:
                for b in monomial_basis(n):
                    s_n = FockPolyState.basis_state(b, n, 2)
                    s_w = FockPolyState.basis_state(b, n + 2, 2)
                    if qc[key].apply(s_n).coeffs != wide[key].apply(s_w).coeffs:
                        return False, f"charge {key}, state {b}"
            for i, ka in enumerate(keys):
                for kb in keys[i + 1:]:
                    if qc[ka].commutator(qc[kb]).coeffs != wide[ka].commutator(wide[kb]).coeffs:
                        return False, f"pair ({ka}, {kb})"
            return True
        r.check("truncation-exactness",
                "charge actions and commutators agree between this truncation and a wider one",
                truncation_exact)
    return r.records


# ---------------------------------------------------------------------------
# em suite

def run_em_suite(cfg) -> list:
    r = Recorder("em")
    k0 = cfg.k0
    trunc = min(cfg.truncation, 4)
    charges = em_mod.su2_charges()
    h = em_mod.em_hamiltonian(k0)

    def su2():
        eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        for (i, j), k in eps.items():
            if charges[i].commutator(charges[j]) != charges[k].scale(GR_I):
                return False, f"pair ({i}, {j})"
            if charges[j].commutator(charges[i]) != charges[k].scale(-GR_I):
                return False, f"pair ({j}, {i})"
        return True
    r.check("su2-commutators",
            "the rotation charges close with the structure constant i",
            su2)

    r.check("rotations-commute-number",
            "each rotation charge commutes with the photon-number charge",
            lambda: all(charges[i].commutator(charges[0]).is_zero() for i in (1, 2, 3)))
    r.check("charges-conserved",
            "all four charges commute with the two-mode energy",
            lambda: all(charges[i].commutator(h).is_zero() for i in (0, 1, 2, 3)))
    r.check("hamiltonian-is-number",
            "the two-mode energy is twice the frequency times the number charge",
            lambda: h == charges[0].scale(GaussianRational(Fraction(k0) * 2)))

    elements = _sample_u2_elements()

    def invariance():
        i2 = ExactMatrix.identity(2)
        for name, u in elements:
            if u.conjugate_charge(i2) != i2:
                return False, f"element {name}"
        return True
    r.check("u2-invariance",
            "conjugation by every sample group element fixes the energy coefficients",
            invariance)

    def adjoint_homomorphism():
        table = {name: u.adjoint_rotation() for name, u in elements}
        for name, rot in table.items():
            for i in range(3):
                for j in range(3):
                    if not rot[i, j].is_real():
                        return False, f"element {name} has a complex adjoint entry"
        for n1, u1 in elements:
            for n2, u2 in elements:
                combined = u1.compose(u2).adjoint_rotation()
                if combined != table[n1] @ table[n2]:
                    return False, f"pair ({n1}, {n2})"
        return True
    r.check("adjoint-homomorphism",
            "the charge rotation map preserves composition on the sample subgroup",
            adjoint_homomorphism)

    def stokes_photons():
        half = Fraction(1, 2)
        if em_mod.stokes_expectations(em_mod.one_photon(1, trunc)) != (half, 0, 0, half):
            return False, "first transverse mode"
        if em_mod.stokes_expectations(em_mod.one_photon(2, trunc)) != (half, 0, 0, -half):
            return False, "second transverse mode"
        return True
    r.check("stokes-one-photon",
            "single-photon polarization values are (1/2, 0, 0, +-1/2)",
            stokes_photons)

    r.check("stokes-vacuum",
            "the vacuum has vanishing polarization values",
            lambda: em_mod.stokes_expectations(
                em_mod.polarization_state({(0, 0): GR_ONE}, trunc)) == (0, 0, 0, 0))

    cs_a = (Fraction(3, 5), Fraction(4, 5))
    cs_b = (Fraction(5, 13), Fraction(12, 13))

    def dual_matrix():
        d = em_mod.U2Element.dual_rotation(cs_a)
        want = ExactMatrix([[cs_a[0], cs_a[1]], [-cs_a[1], cs_a[0]]])
        return d.matrix == want
    r.check("dual-rotation-matrix",
            "the dual rotation is the real two-component rotation by the half angle",
            dual_matrix)

    def dual_group_law():
        for x, y in ((cs_a, cs_b), (cs_b, cs_a), (cs_a, cs_a)):
            lhs = em_mod.U2Element.dual_rotation(x).compose(em_mod.U2Element.dual_rotation(y))
            rhs = em_mod.U2Element.dual_rotation(em_mod.angle_sum(x, y))
            if lhs.matrix != rhs.matrix:
                return False, f"angles {x}, {y}"
        return True
    r.check("dual-group-law",
            "dual rotations compose by exact angle addition",
            dual_group_law)

    def dual_stokes():
        du = em_mod.U2Element.dual_rotation(cs_a)
        c, s = cs_a
        cos_t, sin_t = c * c - s * s, 2 * c * s
        states = [em_mod.one_photon(1, trunc), em_mod.one_photon(2, trunc),
                  em_mod.polarization_state({(1, 0): GR_ONE, (0, 1): GaussianRational(1, 1)}, trunc),
                  em_mod.polarization_state({(2, 0): GR_ONE, (0, 2): GaussianRational(2)}, trunc)]
        for st in states:
            j0, j1, j2, j3 = em_mod.stokes_expectations(st)
            got = []
            for i in (0, 1, 2, 3):
                mc = du.conjugate_charge(em_mod.charge_matrix(i))
                op = em_mod.charge_operator(mc)
                norm = inner_product(st, st)
                got.append((inner_product(st, op.apply(st)) / norm).re)
            if got[0] != j0:
                return False, "number charge moved"
            if (got[3], got[1]) != (cos_t * j3 + sin_t * j1, -sin_t * j3 + cos_t * j1):
                return False, f"pair rotation failed on values {(j3, j1)}"
        return True
    r.check("dual-stokes-rotation",
            "a dual rotation turns the polarization pair by the full angle",
            dual_stokes)

    def dual_subgroup():
        for x in (cs_a, cs_b, em_mod.angle_sum(cs_a, cs_b)):
            u = em_mod.U2Element.dual_rotation(x)
            if u.matrix.dagger() @ u.matrix != ExactMatrix.identity(2):
                return False, f"angle {x}"
            for i in range(2):
                for j in range(2):
                    if not u.matrix[i, j].is_real():
                        return False, f"angle {x}: entry not real"
        return True
    r.check("dual-subgroup",
            "every dual rotation is an exactly unitary, real group element",
            dual_subgroup)
    return r.records


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


SUITE_RUNNERS = {
    "algebra": run_algebra_suite,
    "projectors": run_projectors_suite,
    "u31": run_u31_suite,
    "fock": run_fock_suite,
    "em": run_em_suite,
}
