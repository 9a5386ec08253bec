"""Mutation gate: each known fault must fail exactly its identities.

Each row plants one fault in a copy of the package, runs one `verify`
process on it, and asserts exit 1 and the exact set of failing
identities, so an identity that stops catching a fault shows up as a
changed set.  The gate prints, overall and for each suite, the faults
caught out of those tried and the identities reached out of those
declared (mutation testing after DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978).

An identity is reached when it is in some row's expected set.  The
identities no row reaches are exactly `UNREACHED`, checked without a
subprocess: a new identity needs a row that fails it, and a row that
reaches a listed identity takes it off the list.  A row's set is
recorded on the code before the change that adds the row, or on the
change itself where the fault crashed `verify` before it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import stueckelberg
from stueckelberg.report import EXIT_FAIL, EXIT_PASS
from stueckelberg.suites import IDENTITIES, SUITES

PACKAGE = Path(stueckelberg.__file__).resolve().parent
DECLARED = {f"{d.suite}/{d.ident}" for d in IDENTITIES}
VERIFY_ALL = ("verify", "all", "--k0", "37/11")
VERIFY_FOCK = ("verify", "fock", "--k0", "37/11")
# the pure-state identities a wrong spin-sector or projection projector fails
STATE_IDS = {f"projectors/{i}" for i in (
    "state-idempotent", "state-orthogonal", "state-rank-one", "state-completeness",
    "dyad-reassembly", "dyad-metric-row", "dyad-norm-signs", "eigen-equation",
    "component-layout", "spin0-no-bivector")}

# (fault, file, exact old text, new text, argv, failing "suite/id" set)
MUTATIONS = [
    ("trace correction dropped", "modes.py",
     "return self.s - ExactMatrix.identity(4) * (self.s.trace() * Fraction(1, 4))",
     "return self.s",
     VERIFY_ALL, {"u31/trace-direction-trivial"}),
    ("antisymmetric charges made symmetric", "modes.py",
     'charges[("antisym", mu, nu)] = pi_sym(mu) * q_sym(nu) - pi_sym(nu) * q_sym(mu)',
     'charges[("antisym", mu, nu)] = pi_sym(mu) * q_sym(nu) + pi_sym(nu) * q_sym(mu)',
     VERIFY_ALL, {"u31/charges-conserved", "u31/charge-flows", "u31/structure-constants",
                  "fock/bracket-commutator-correspondence"}),
    ("A once in the generator", "modes.py",
     "return (params.a * 2 - ExactMatrix.identity(4)",
     "return (params.a - ExactMatrix.identity(4)",
     VERIFY_ALL, {"u31/structure-constants", "fock/charge-matrix-structure"}),
    ("1/k0 for k0 in delta pi", "modes.py",
     "_table_sum((a2, pis), (w * -k0, qs))",
     "_table_sum((a2, pis), (w / -k0, qs))",
     VERIFY_ALL, {"u31/charge-flows", "u31/generating-function",
                  "u31/hamiltonian-invariance"}),
    ("A transposed in the flow", "modes.py",
     "a2, w = params.a * 2, _phase_table(params)",
     "a2, w = params.a.transpose() * 2, _phase_table(params)",
     VERIFY_ALL, {"u31/charge-flows", "u31/generating-function"}),
    ("a once in F", "modes.py",
     "for (i, j), a in (params.a * 2).coeffs.items():",
     "for (i, j), a in params.a.coeffs.items():",
     VERIFY_ALL, {"u31/generating-function"}),
    ("symmetric off-diagonal charge weight once", "modes.py",
     "w = 1 if i == j else 2",
     "w = 1",
     VERIFY_ALL, {"u31/charge-flows", "u31/structure-constants",
                  "fock/charge-matrix-structure"}),
    ("A made imaginary in the generator", "modes.py",
     "return (params.a * 2 - ExactMatrix.identity(4)",
     "return (params.a * (GR_I * 2) - ExactMatrix.identity(4)",
     VERIFY_ALL, {"u31/generator-closure", "u31/rotation-subalgebra",
                  "u31/structure-constants", "fock/charge-matrix-structure"}),
    ("structure-constant coefficients read in reversed direction order", "modes.py",
     "mat_inverse(mat_columns(mats))",
     "mat_inverse(mat_columns(mats[::-1]))",
     VERIFY_ALL, {"u31/rotation-subalgebra", "u31/structure-constants",
                  "fock/charge-matrix-structure"}),
    ("signs dropped from the stacked commutator tables", "fock.py",
     "return t._with({(i, j): (x * s[i], y * s[i])",
     "return t._with({(i, j): (x, y)",
     VERIFY_FOCK, {"fock/charges-commute-energy", "fock/bracket-commutator-correspondence",
                   "fock/charge-matrix-structure", "fock/truncation-exactness"}),
    ("pi.pi quantisation factor sign flipped", "fock.py",
     "(False, False): (-s * p * p, 0)",
     "(False, False): (s * p * p, 0)",
     VERIFY_FOCK, {"fock/bracket-commutator-correspondence"}),
    ("s and d directions dropped from the sum of f Q", "suites.py",
     "want = charges @ f",
     "want = charges @ ExactMatrix.sparse(16, 16, (((k, k), 1) for k in range(7))) @ f",
     VERIFY_ALL, {"u31/structure-constants", "fock/charge-matrix-structure"}),
    ("trace misses the first diagonal entry", "exact.py",
     "for i in range(self.rows):\n            e = self._c.get((i, i))",
     "for i in range(1, self.rows):\n            e = self._c.get((i, i))",
     VERIFY_ALL, {"algebra/unit-trace", "u31/trace-direction-trivial", "u31/charge-flows",
                  "u31/structure-constants", "fock/charge-matrix-structure"}),
    ("matrix units transposed", "epsilon.py",
     "space.position(a), space.position(b))",
     "space.position(b), space.position(a))",
     VERIFY_ALL, {"algebra/unit-product-rule"}),
    ("half dropped from the summed bivector units", "suites.py",
     "terms.append(((pos(a), pos(a)), half * (sign * sign)))",
     "terms.append(((pos(a), pos(a)), sign * sign))",
     VERIFY_ALL, {"algebra/unit-completeness"}),
    ("minimal-polynomial factor sign flipped", "suites.py",
     "prod = prod @ (a - ident * r)",
     "prod = prod @ (a + ident * r)",
     VERIFY_ALL, {"projectors/spin2-minimal"}),
    ("layout's scalar-slot sign flipped", "suites.py",
     "((0, mu), -ip[mu - 1])",
     "((0, mu), ip[mu - 1])",
     VERIFY_ALL, {"projectors/component-layout"}),
    ("energy projector sign swapped", "projectors.py",
     "ident * (m * eps))",
     "ident * (m * -eps))",
     VERIFY_ALL, {"projectors/eigen-equation", "projectors/component-layout"}),
    ("momentum contraction conjugated", "projectors.py",
     "out = out + w.alpha[mu] * c\n",
     "out = out + w.alpha[mu] * GaussianRational(c.re, -c.im)\n",
     VERIFY_ALL, {"projectors/projector-commutators", "projectors/state-idempotent",
                  "projectors/state-orthogonal", "projectors/state-rank-one",
                  "projectors/dyad-reassembly", "projectors/dyad-metric-row",
                  "projectors/dyad-norm-signs", "projectors/eigen-equation",
                  "projectors/component-layout", "projectors/spin0-no-bivector"}),
    ("spin-sector half dropped", "projectors.py",
     "half = sigma2 / GaussianRational(2)",
     "half = sigma2",
     VERIFY_ALL, STATE_IDS),
    ("projection-zero projector linear", "projectors.py",
     "ident - sigma_p @ sigma_p",
     "ident - sigma_p",
     VERIFY_ALL, STATE_IDS | {"projectors/spinproj-spectrum"}),
    ("projection projector sign flipped", "projectors.py",
     "sigma_p + ident * q",
     "sigma_p - ident * q",
     VERIFY_ALL, {"projectors/spinproj-spectrum"}),
    # at the default p = (0, 0, 3) the kept real part p_2 is 0, so t = 0 there
    ("imaginary part of the projection +-1 dyad norm root dropped", "projectors.py",
     "t = GaussianRational(a, b) * (p.p0 / (2 * p.m * n))",
     "t = GaussianRational(a) * (p.p0 / (2 * p.m * n))",
     ("verify", "projectors", "--mass", "24", "--momentum", "2,3,6"),
     {f"projectors/{i}" for i in ("dyad-reassembly", "dyad-metric-row", "dyad-norm-signs",
                                  "eigen-equation", "component-layout", "spin0-no-bivector")}),
    ("eta1 without its factor 2", "wave.py",
     "(b4 @ b4) * GaussianRational(2) - ExactMatrix.identity(10)",
     "(b4 @ b4) - ExactMatrix.identity(10)",
     VERIFY_ALL, {"algebra/eta-anticommutes-spatial", "algebra/eta-involution",
                  "algebra/eta-spin1-block", "projectors/component-layout",
                  "projectors/dyad-metric-row", "projectors/dyad-norm-signs",
                  "projectors/dyad-reassembly", "projectors/eigen-equation",
                  "projectors/spin0-no-bivector"}),
    ("rotation generators placed one slot up, on the scalar slot", "wave.py",
     "block_at(1, 1)),))\n               for (mu, nu)",
     "block_at(0, 0)),))\n               for (mu, nu)",
     VERIFY_ALL, {"algebra/alpha-rotation-bracket", "algebra/rotation-scalar-slot"} | {
         f"projectors/{i}" for i in (
             "component-layout", "dyad-metric-row", "dyad-norm-signs", "dyad-reassembly",
             "eigen-equation", "projector-commutators", "spin0-no-bivector", "spinproj-commutes",
             "spinproj-spectrum", "state-idempotent", "state-orthogonal", "state-rank-one")}),
    ("generator commutator order swapped", "wave.py",
     "beta1[mu] @ beta1[nu] - beta1[nu] @ beta1[mu]",
     "beta1[nu] @ beta1[mu] - beta1[mu] @ beta1[nu]",
     VERIFY_ALL, {"algebra/alpha-rotation-bracket", "algebra/rotation-closure"}),
    ("cubic rule's delta side zero", "suites.py",
     "lhs != sum((ms[z] for x, y, z in terms if x == y), zero)",
     "lhs != zero",
     VERIFY_ALL, {"algebra/cubic-alpha", "algebra/trilinear-beta0", "algebra/trilinear-beta1"}),
    ("rotation rule's minus term made plus", "suites.py",
     "out = out - x(",
     "out = out + x(",
     VERIFY_ALL, {"algebra/alpha-rotation-bracket", "algebra/rotation-closure"}),
    ("spin square's momentum term added", "projectors.py",
     "jj * GaussianRational(p.p_squared) - cross",
     "jj * GaussianRational(p.p_squared) + cross",
     VERIFY_ALL, STATE_IDS | {f"projectors/{i}" for i in (
         "spin2-dual-route", "spin2-minimal", "spin2-absorbs-projection",
         "projector-commutators")}),
    ("scalar terms of the 11-dim wave matrices dropped", "wave.py",
     "    terms += [((v, sc), GR_ONE), ((sc, v), GR_ONE)]\n",
     "",
     VERIFY_ALL, {"algebra/alpha-block-split", "algebra/trilinear-alpha-negative",
                  "projectors/component-layout", "projectors/dyad-metric-row",
                  "projectors/dyad-norm-signs", "projectors/dyad-reassembly",
                  "projectors/eigen-equation", "projectors/energy-rank",
                  "projectors/spin0-no-bivector", "projectors/spinproj-spectrum",
                  "projectors/state-rank-one"}),
    ("vacuum made a scalar quantum", "fock.py",
     "return FockPolyState({(0, 0, 0, 0): GR_ONE}, truncation, scheme)",
     "return FockPolyState({(0, 0, 0, 1): GR_ONE}, truncation, scheme)",
     VERIFY_FOCK, {"fock/vacuum-annihilated", "fock/vacuum-energy-zero"}),
    ("overlap sign read at even scalar occupation", "fock.py",
     "if signed and k[3] % 2:",
     "if signed and not k[3] % 2:",
     VERIFY_FOCK, {"fock/gram-indefinite"}),
    ("Gram normalisation dropped", "fock.py",
     "d *= _factorial_weight(a)",
     "d *= 1",
     VERIFY_FOCK, {"fock/gram-indefinite", "fock/gram-positive-scheme1"}),
    ("scalar energy term sign flipped", "fock.py",
     "terms[(4, 4)] = GaussianRational(-k0)",
     "terms[(4, 4)] = GaussianRational(k0)",
     VERIFY_FOCK, {"fock/charges-commute-energy", "fock/energy-indefinite-scheme1",
                   "fock/energy-nonnegative"}),
    ("physical part read at the first mode", "fock.py",
     "phys = {k: v for k, v in s._c.items() if k[3] == 0}",
     "phys = {k: v for k, v in s._c.items() if k[0] == 0}",
     VERIFY_FOCK, {"fock/physical-decomposition"}),
    ("covariant phase of the fourth mode dropped", "fock.py",
     "return GR_I if mu == 4 else GR_ONE",
     "return GR_ONE",
     VERIFY_FOCK, {"fock/bracket-commutator-correspondence", "fock/canonical-pair-correspondence",
                   "fock/charge-matrix-structure", "fock/unit-charge-number"}),
    ("annihilation factor n + 1", "fock.py",
     "nk[m] -= 1\n                yield tuple(nk), sign * n, p",
     "nk[m] -= 1\n                yield tuple(nk), sign * (n + 1), p",
     VERIFY_FOCK, {"fock/canonical-pair-correspondence", "fock/ladder-incorrect-sign",
                   "fock/ladder-standard", "fock/truncation-exactness"}),
    ("bilinear sign read at the creation mode", "fock.py",
     "sign = _ANNIHILATION_SIGNS[scheme][j - 1]",
     "sign = _ANNIHILATION_SIGNS[scheme][i - 1]",
     VERIFY_FOCK, {"fock/truncation-exactness"}),
    ("bilinear creation index shifted", "fock.py",
     "nk[i] += 1",
     "nk[(i + 1) % 4] += 1",
     VERIFY_FOCK, {"fock/truncation-exactness"}),
    ("charge conjugated as U M U+", "em.py",
     "return self.matrix.dagger() @ m @ self.matrix",
     "return self.matrix @ m @ self.matrix.dagger()",
     VERIFY_ALL, {"em/adjoint-homomorphism", "em/dual-stokes-rotation"}),
    ("rotation charges left unhalved", "em.py",
     "PAULI[i] * Fraction(1, 2) for i in (1, 2, 3)",
     "PAULI[i] for i in (1, 2, 3)",
     VERIFY_ALL, {"em/stokes-one-photon", "em/su2-commutators"}),
    ("second transverse mode's energy doubled", "em.py",
     "return BilinearOperator({(1, 1): k0, (2, 2): k0}, scheme=2)",
     "return BilinearOperator({(1, 1): k0, (2, 2): k0 * 2}, scheme=2)",
     VERIFY_ALL, {"em/charges-conserved", "em/hamiltonian-is-number"}),
    ("angle sum made the angle difference", "em.py",
     "return (c1 * c2 - s1 * s2, s1 * c2 + c1 * s2)",
     "return (c1 * c2 + s1 * s2, s1 * c2 - c1 * s2)",
     VERIFY_ALL, {"em/dual-group-law"}),
    ("dual rotation about the first axis", "em.py",
     "return U2Element.from_params((1, 0), (0, 1, 0), theta_cs)",
     "return U2Element.from_params((1, 0), (1, 0, 0), theta_cs)",
     VERIFY_ALL, {"em/dual-rotation-matrix", "em/dual-subgroup", "em/dual-stokes-rotation"}),
    # faults under a shared object's build: each identity that reads the
    # object fails with the build's exception, and the rest still run
    ("negation made conjugation", "exact.py",
     "return GaussianRational._raw(-self.re, -self.im)",
     "return GaussianRational._raw(self.re, -self.im)",
     VERIFY_ALL, {"algebra/eta-anticommutes-spatial", "algebra/eta-commutes-time",
                  "em/adjoint-homomorphism", "em/dual-stokes-rotation", "em/stokes-one-photon",
                  "em/su2-commutators", "em/u2-invariance", "fock/charge-matrix-structure",
                  "projectors/component-layout", "projectors/dyad-metric-row",
                  "projectors/dyad-norm-signs", "projectors/dyad-reassembly",
                  "projectors/eigen-equation", "projectors/spin0-no-bivector",
                  "u31/charge-flows", "u31/generating-function", "u31/generator-closure",
                  "u31/hamiltonian-invariance", "u31/rotation-subalgebra",
                  "u31/structure-constants"}),
    ("antisymmetric direction labels transposed", "modes.py",
     "U31Params(antisym={(mu, nu): unit})",
     "U31Params(antisym={(nu, mu): unit})",
     VERIFY_ALL, {"fock/charge-matrix-structure", "u31/charge-flows", "u31/generating-function",
                  "u31/generator-closure", "u31/hamiltonian-invariance",
                  "u31/rotation-subalgebra", "u31/structure-constants",
                  "u31/trace-direction-trivial"}),
]


def _process(package_root, argv, timeout=60):
    """One finished verify process on package_root, with its output captured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STUECKELBERG_")}
    env["PYTHONPATH"] = str(package_root)
    return subprocess.run([sys.executable, "-m", "stueckelberg.cli", *argv, "--json",
                           "--no-timing", "--workers", "1"],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _verify(package_root, argv, timeout=60):
    """(exit code, failing "suite/id" set) of one verify process on package_root."""
    proc = _process(package_root, argv, timeout)
    records = json.loads(proc.stdout)["identities"] if proc.stdout else []
    return proc.returncode, {f"{r['suite']}/{r['id']}" for r in records
                             if r["status"] == "fail"}


def _score(outcomes):
    """Lines of faults caught / tried and identities reached / declared, overall and per suite.

    outcomes holds (expected set, caught) per row; a row counts for each
    suite its expected set names.
    """
    reached = set().union(*(want for want, caught in outcomes if caught))
    lines = [f"mutation score: {sum(c for _, c in outcomes)}/{len(outcomes)} faults caught, "
             f"{len(reached)}/{len(DECLARED)} identities reached"]
    for suite in SUITES:
        mine = {i for i in DECLARED if i.startswith(f"{suite}/")}
        tried = [c for want, c in outcomes if want & mine]
        lines.append(f"  {suite:<10} {sum(tried)}/{len(tried)} faults caught, "
                     f"{len(reached & mine)}/{len(mine)} identities reached")
    return lines


def test_each_fault_fails_exactly_its_identities(tmp_path):
    clean = tmp_path / "clean"
    shutil.copytree(PACKAGE, clean / "stueckelberg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert _verify(clean, VERIFY_ALL) == (EXIT_PASS, set())
    missed, outcomes = [], []
    for k, (fault, name, old, new, argv, want) in enumerate(MUTATIONS):
        root = tmp_path / f"m{k}"
        shutil.copytree(clean, root)
        path = root / "stueckelberg" / name
        text = path.read_text()
        assert text.count(old) == 1, f"{fault}: the old text must occur once in {name}"
        path.write_text(text.replace(old, new))
        got = _verify(root, argv)
        outcomes.append((want, got == (EXIT_FAIL, want)))
        if got != (EXIT_FAIL, want):
            missed.append((fault, got))
    print("\n".join(_score(outcomes)))
    assert missed == []


# the identities no row reaches
UNREACHED = {
    "algebra/beta4-squared-diagonal", "algebra/eta-hermitian",
    "projectors/energy-completeness", "projectors/energy-idempotent",
    "projectors/energy-orthogonal", "projectors/momentum-shell", "projectors/pslash-cubic",
    "projectors/pslash-traceless", "projectors/spin2-both-sectors",
    "projectors/spinproj-minimal",
    "u31/canonical-brackets", "u31/hamiltonian-two-forms", "u31/unit-charge-counts-quanta",
    "em/rotations-commute-number", "em/stokes-vacuum",
}


def test_the_identities_no_row_reaches_are_exactly_the_unreached():
    reached = set().union(*(want for *_, want in MUTATIONS))
    assert reached - DECLARED == set(), "a row expects an identity that is not declared"
    assert DECLARED - reached == UNREACHED
