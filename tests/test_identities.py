"""Every declared identity, under each configuration of the fixed set.

Each suite runs once per configuration.  An identity that needs a
vacuum scheme the configuration does not run must be absent from the
report; one that needs a moving frame must be skipped in the rest frame
with the documented reason; every other declared identity must pass.
The shared objects the checks read are each built once per suite run,
and a failing Gram identity, or a failing claim about every Fock basis
state, names the state it fails on.
"""

import os
import sys
from collections import Counter
from itertools import product

import pytest

from stueckelberg import fock, modes, report, suites
from stueckelberg.epsilon import BIVECTOR_PAIRS, DIM11, epsilon as eps_unit, epsilon_delta
from stueckelberg.exact import ExactMatrix, assemble, block_at, mat_commutator
from stueckelberg.fock import (FockPolyState, LadderOp, apply_ladder, energy_operator,
                               monomial_basis, quantum_charges)
from stueckelberg.report import SuiteConfig
from stueckelberg.suites import (IDENTITIES, IDX, MOVING_FRAME, REST_FRAME_REASON,
                                 SCHEME_1, SCHEME_2, run_suite)

# The default configuration is also the first acceptance momentum, m = 4
# and p = (0, 0, 3); the other two acceptance momenta follow it.
CONFIGS = {
    "default": SuiteConfig(),
    "m12-p340": SuiteConfig(mass=12, momentum=(3, 4, 0)),
    "m24-p236": SuiteConfig(mass=24, momentum=(2, 3, 6)),
    "scheme1": SuiteConfig(scheme="1"),
    "scheme2": SuiteConfig(scheme="2"),
    "rest-frame": SuiteConfig(momentum=(0, 0, 0)),
}


@pytest.fixture(scope="module")
def reports():
    """(suite, config name) -> {id: record}; each suite runs once per configuration."""
    cache = {}

    def report(suite, config):
        if (suite, config) not in cache:
            records = run_suite(suite, CONFIGS[config])
            ids = [r.ident for r in records]
            assert len(ids) == len(set(ids)), f"{suite} reports an id twice under {config}"
            cache[(suite, config)] = {r.ident: r for r in records}
        return cache[(suite, config)]
    return report


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("decl", IDENTITIES, ids=lambda d: f"{d.suite}/{d.ident}")
def test_declared_identity(reports, decl, config):
    cfg = CONFIGS[config]
    rec = reports(decl.suite, config).get(decl.ident)
    if decl.needs in (SCHEME_1, SCHEME_2) and cfg.scheme not in ("both", str(decl.needs)):
        assert rec is None
        return
    assert rec is not None, "declared identity missing from the report"
    assert rec.claim == decl.claim
    if decl.needs == MOVING_FRAME and not any(cfg.momentum):
        assert (rec.status, rec.reason) == ("skip", REST_FRAME_REASON)
    else:
        assert rec.status == "pass", rec.witness


def test_each_identity_is_declared_once():
    keys = [(d.suite, d.ident) for d in IDENTITIES]
    assert len(keys) == len(set(keys))


# builder -> calls while the projectors, u31 and fock suites run once each
# at the default configuration, the structure-constant table built afresh:
# one generator matrix per basis direction, one canonical flow per
# direction and the trace, and one quantisation per charge and per
# distinct classical bracket (44 of the 136 at k0 = 5)
BUILDER_CALLS = {
    "p_slash": 1,
    "spin_squared": 1,
    "spin_projection_op": 1,
    "generator_matrix": 16,
    "infinitesimal_transform": 17,
    "quantum_charges": 1,
    "quantize": 17 + 44,
    "energy_operator": 2,
}


def _count_builders(monkeypatch, count):
    """Call count(name) on every call of each BUILDER_CALLS builder; structure constants afresh."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "stueckelberg"]
    for name in BUILDER_CALLS:
        real = next(vars(m)[name] for m in package if name in vars(m))

        def counted(*args, _real=real, _name=name, **kwargs):
            count(_name)
            return _real(*args, **kwargs)
        for m in package:
            if vars(m).get(name) is real:
                monkeypatch.setattr(m, name, counted)
    modes.structure_constants.cache_clear()
    modes._generator_basis.cache_clear()


def test_each_shared_object_is_built_once(monkeypatch):
    calls = Counter()
    _count_builders(monkeypatch, lambda name: calls.update((name,)))
    for suite in ("projectors", "u31", "fock"):
        assert all(r.status == "pass" for r in run_suite(suite, SuiteConfig()))
    assert dict(calls) == BUILDER_CALLS


def test_each_shared_object_is_built_once_across_processes(monkeypatch, three_cpus):
    # every process writes one byte per builder call into one inherited pipe
    names = list(BUILDER_CALLS)
    rd, wr = os.pipe()
    try:
        _count_builders(monkeypatch, lambda name: os.write(wr, bytes([names.index(name)])))
        rep = report.run(SuiteConfig(suites=("projectors", "u31", "fock")))
    finally:
        os.close(wr)
    with os.fdopen(rd, "rb") as fh:
        calls = Counter(names[b] for b in fh.read())
    assert rep.exit_code == report.EXIT_PASS
    assert dict(calls) == BUILDER_CALLS


# (degree, row, column): an entry planted in the Gram block of one degree
@pytest.mark.parametrize("entry", [(2, 3, 7), (2, 0, 0)], ids=["off-diagonal", "diagonal"])
def test_gram_failure_names_the_first_differing_state(monkeypatch, entry):
    real, (d, row, col) = suites.normalized_gram, entry

    def wrong_gram(states, truncation, scheme):
        g = real(states, truncation, scheme)
        return g + ExactMatrix.unit(g.rows, g.cols, row, col) if sum(states[0]) == d else g
    monkeypatch.setattr(suites, "normalized_gram", wrong_gram)
    records = {r.ident: r for r in run_suite("fock", SuiteConfig(truncation=2))}
    want = f"state {fock.monomials(d)[row]}"
    for ident in ("gram-indefinite", "gram-positive-scheme1"):
        assert (records[ident].status, records[ident].witness) == ("fail", want)


def _deep_annihilation(real):
    """_ladder_images with annihilation doubled where n >= 2 on monomials of degree 4 and up.

    The fault keeps the degree; [A, C] first breaks on degree 3, where A
    meets it after C but not before.
    """
    def images(op, scheme, truncation, items):
        for k, p in items:
            double = op.direction == "annihilate" and k[op.mode - 1] >= 2 and sum(k) >= 4
            for nk, f, q in real(op, scheme, truncation, ((k, p),)):
                yield nk, f * 2 if double else f, q
    return images


def _deep_diagonal(real):
    """_bilinear_images with the diagonal factor doubled where a spatial mode holds
    n >= 2 quanta, on monomials of degree 3 and up.

    The fault keeps the degree; the blocks below degree 3 pass.
    """
    def images(i, j, scheme, items):
        for k, p in items:
            double = i == j < 4 and k[j - 1] >= 2 and sum(k) >= 3
            for nk, f, q in real(i, j, scheme, ((k, p),)):
                yield nk, f * 2 if double else f, q
    return images


# fault -> (truncation, how to plant it, the claims it fails, witnesses fixed by hand)
BASIS_STATE_FAULTS = {
    # scheme 2 run with the scheme-1 signs: the scalar sector's sign flips
    "scalar sign": (3, lambda mp: mp.setitem(fock._ANNIHILATION_SIGNS, 2, (1, 1, 1, 1)),
                    {"ladder-incorrect-sign", "energy-nonnegative", "unit-charge-number"}, {}),
    # found inside degree 3, past the blocks below it
    "deep annihilation": (5, lambda mp: mp.setattr(fock, "_ladder_images",
                                                   _deep_annihilation(fock._ladder_images)),
                          {"ladder-standard", "ladder-incorrect-sign"},
                          {"ladder-standard": "mode 1, state (1, 0, 0, 2)"}),
    # found inside degree 3, past the blocks below it
    "deep diagonal": (5, lambda mp: mp.setattr(fock, "_bilinear_images",
                                               _deep_diagonal(fock._bilinear_images)),
                      {"energy-nonnegative", "unit-charge-number"},
                      {"unit-charge-number": "state (0, 0, 2, 1)"}),
}


def test_basis_state_failure_names_the_first_failing_state(monkeypatch):
    # each claim is taken state by state in basis order, as the reference
    for fault, (n, plant, fails, fixed) in BASIS_STATE_FAULTS.items():
        with monkeypatch.context() as mp:
            plant(mp)
            cfg = SuiteConfig(truncation=n, scheme="2")
            records = {r.ident: r for r in run_suite("fock", cfg)}
            states = {b: FockPolyState.basis_state(b, n, 2) for b in monomial_basis(n)}

            def first(claim, bs=states):
                return next((f"state {b}" for b in bs if not claim(b, states[b])), None)

            def ladder(mode, sign):
                create, annihilate = LadderOp(mode, "create"), LadderOp(mode, "annihilate")
                return first(lambda b, s: apply_ladder(annihilate, apply_ladder(create, s))
                             - apply_ladder(create, apply_ladder(annihilate, s)) == s.scale(sign),
                             [b for b in states if sum(b) < n])

            p0, unit = energy_operator(cfg.k0, 2), quantum_charges()[("unit",)]
            want = {
                "ladder-standard": next((f"mode {m}, {w}" for m in (1, 2, 3)
                                         if (w := ladder(m, 1))), None),
                "ladder-incorrect-sign": ladder(4, -1),
                "energy-nonnegative": first(lambda b, s: p0.apply(s) == s.scale(cfg.k0 * sum(b))),
                "unit-charge-number": first(lambda b, s: unit.apply(s) == s.scale(sum(b))),
            }
        assert {ident for ident, w in want.items() if w} == fails, fault
        assert fixed.items() <= want.items(), fault
        assert {ident: (records[ident].status, records[ident].witness) for ident in want} \
            == {ident: ("pass", None) if w is None else ("fail", w)
                for ident, w in want.items()}, fault


def _transposed_at(a0, b0):
    def unit(a, b, space):
        return eps_unit(b, a, space) if (a, b) == (a0, b0) else eps_unit(a, b, space)
    return unit


def _delta_also(b0, c0, value=1):
    def delta(b, c):
        return value if (b, c) == (b0, c0) else epsilon_delta(b, c)
    return delta


V2, V3, B13, B34 = "2", "3", "[13]", "[34]"

UNIT_FAULTS = {
    "unit-transposed": (_transposed_at(V2, B13), epsilon_delta),
    "unit-doubled": (lambda a, b, space: eps_unit(a, b, space) * (2 if (a, b) == (B34, V3) else 1),
                     epsilon_delta),
    "delta-extra": (eps_unit, _delta_also(B13, V2)),
    "delta-dropped": (eps_unit, _delta_also(V3, V3, 0)),
    "delta-doubled": (eps_unit, _delta_also(B34, B34, 2)),
}


@pytest.mark.parametrize("fault", UNIT_FAULTS)
def test_unit_product_witness_is_the_first_failing_pair(monkeypatch, fault):
    unit, delta = UNIT_FAULTS[fault]
    monkeypatch.setattr(suites, "eps_unit", unit)
    monkeypatch.setattr(suites, "epsilon_delta", delta)
    # the per-pair scan the block product replaced, in its order
    units = {(a, b): unit(a, b, DIM11) for a in DIM11.labels for b in DIM11.labels}
    want = next(f"basis pair ({a},{b}) x ({c},{d})"
                for (a, b), mab in units.items() for (c, d), mcd in units.items()
                if mab @ mcd != units[(a, d)] * delta(b, c))
    assert suites.Algebra(SuiteConfig()).product_rule() == (False, want)


# the per-triple and per-pair checks that the cubic and rotation rules replaced
def _pdk_holds(betas, mu, nu, al):
    bm, bn, ba = betas[mu], betas[nu], betas[al]
    rhs = ExactMatrix.zeros(bm.rows)
    if mu == nu:
        rhs = rhs + ba
    if al == nu:
        rhs = rhs + bm
    return bm @ bn @ ba + ba @ bn @ bm == rhs


def _cubic_alpha_holds(alphas, mu, nu, al):
    am, an, aa = alphas[mu], alphas[nu], alphas[al]
    lhs = (am @ an @ aa + aa @ an @ am + am @ aa @ an
           + an @ aa @ am + an @ am @ aa + aa @ am @ an)
    rhs = ExactMatrix.zeros(11)
    if mu == nu:
        rhs = rhs + aa
    if al == nu:
        rhs = rhs + am
    if mu == al:
        rhs = rhs + an
    return lhs == rhs * 2


def _lorentz_bracket_rhs(w, rho, sig, mu, nu):
    out = ExactMatrix.zeros(11)
    if sig == mu:
        out = out + w.lorentz_signed(rho, nu)
    if rho == nu:
        out = out + w.lorentz_signed(sig, mu)
    if rho == mu:
        out = out - w.lorentz_signed(sig, nu)
    if sig == nu:
        out = out - w.lorentz_signed(rho, mu)
    return out


def _alpha_lorentz_bracket_rhs(w, lam, mu, nu):
    out = ExactMatrix.zeros(11)
    if lam == mu:
        out = out + w.alpha[nu]
    if lam == nu:
        out = out - w.alpha[mu]
    return out


def _first_triple(holds, ms):
    return next((f"triple {t}" for t in product(IDX, repeat=3) if not holds(ms, *t)), None)


def _reference(w):
    """id -> the result the deleted loops give on the wave matrices w."""
    pairs = [t for t in product(IDX, repeat=2) if t[0] != t[1]]
    witnesses = {
        "trilinear-beta1": _first_triple(_pdk_holds, w.beta1),
        "trilinear-beta0": _first_triple(_pdk_holds, w.beta0),
        "cubic-alpha": _first_triple(_cubic_alpha_holds, w.alpha),
        "rotation-closure": next((
            f"generator pair {rs}, {mn}" for rs in pairs for mn in pairs
            if mat_commutator(w.lorentz_signed(*rs), w.lorentz_signed(*mn))
            != _lorentz_bracket_rhs(w, *rs, *mn)), None),
        "alpha-rotation-bracket": next((
            f"(lambda, pair) = ({lam}, {mn})" for lam in IDX for mn in BIVECTOR_PAIRS
            if mat_commutator(w.alpha[lam], w.lorentz[mn])
            != _alpha_lorentz_bracket_rhs(w, lam, *mn)), None),
    }
    out = {ident: True if t is None else (False, t) for ident, t in witnesses.items()}
    out["trilinear-alpha-negative"] = (
        _first_triple(_pdk_holds, w.alpha) is not None
        or (False, "the 11-dim matrices unexpectedly satisfy the trilinear relation"))
    return out


def _with_entry(family, nu, i, j):
    """The wave matrices with entry (i, j) of family[nu] raised by one."""
    def fault(w):
        ms = getattr(w, family)
        n = ms[nu].rows
        return w._replace(**{family: {**ms, nu: ms[nu] + ExactMatrix.unit(n, n, i, j)}})
    return fault


WAVE_FAULTS = {
    "none": lambda w: w,
    "beta1-entry": _with_entry("beta1", 3, 2, 7),
    "beta0-entry": _with_entry("beta0", 2, 0, 0),
    "alpha-entry": _with_entry("alpha", 4, 5, 9),
    # the 11-dim matrices without their spin-0 block obey the trilinear relation
    "alpha-spin1-only": lambda w: w._replace(alpha={nu: assemble(11, 11, ((b, block_at(1, 1)),))
                                                    for nu, b in w.beta1.items()}),
    "generator-flipped": lambda w: w._replace(lorentz={**w.lorentz,
                                                       (2, 4): -w.lorentz[(2, 4)]}),
}


@pytest.mark.parametrize("fault", WAVE_FAULTS)
def test_wave_relation_witness_is_the_first_failing_triple(fault):
    w = WAVE_FAULTS[fault](suites.wave_matrices())
    algebra = suites.Algebra(SuiteConfig())
    algebra.w = w
    want = _reference(w)
    got = {d.ident: d.check(algebra) for d in suites.Algebra.identities if d.ident in want}
    assert got == want
    assert (fault == "none") == all(r is True for r in want.values())
