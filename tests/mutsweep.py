"""Mutation sweep over the library modules: which one-site faults `verify` catches.

Each mutant changes one site of one module, by one of four operators:
`+` and `-` swapped, a unary minus dropped, an integer constant plus 1,
and `<` against `<=` (`>` against `>=`).  Sites are counted in the
order of an AST walk, and a mutant's source is the mutated tree
unparsed.  Each mutant runs the gate's `verify` process under two
configs, the default momentum and a generic one, and is

- killed: some config reports a failing identity;
- crash-only: not killed, and some config ends with no report;
- survived: both configs pass.

The ledger lists each killed mutant with the identities it fails (the
kill matrix a new gate row is picked from), and each crash-only one
with where it crashed: at import, while the config is read or
validated, in a suite constructor, or elsewhere.  Each survivor gets
one class from `CLASSES`, keyed by its source line with the mutated
expression marked: *equivalent*, *outside verify* (the sweep runs the
named tier-1 test on the mutant and accepts the class only if it
fails), *undecided*, or *deleted* when the site is gone from the
current source.  Run it, from the repository root, as

    PYTHONPATH=src python tests/mutsweep.py --label change --out tests/mutsweep.json

`--package DIR` sweeps another copy of the package (say, an older
commit's), whose survivors take their classes from the table unchecked,
and `--jobs N` runs N mutants at a time, each in its own copy.
The copies hold bytecode checked against a hash of the source, and the
`verify` processes write none, so an edited module is always compiled
afresh: an mtime and size check would take a same-size edit within one
second for the old bytecode.  The result is stored under the label in
the ledger file, next to any other labels there.
"""

import argparse
import ast
import compileall
import json
import os
import py_compile
import queue
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from test_mutations import PACKAGE, _process, _verify

REPO = Path(__file__).resolve().parent.parent
MODULES = ("exact", "epsilon", "wave", "projectors", "modes", "fock", "em")
CONFIGS = (("verify", "all", "--k0", "37/11"),
           ("verify", "all", "--k0", "37/11", "--mass=125/7", "--momentum=-180/7,192/7,144/7"))
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
           ast.Gt: ast.GtE, ast.GtE: ast.Gt}
FRAME = re.compile(r'File ".*?stueckelberg/(\w+)\.py", line \d+, in (\S+)')

# (class, evidence) -> the (module, operator, code) of each survivor of that
# class, code as `sites` names it.  A class is "equivalent" (evidence: why
# no input `verify` accepts tells the mutant apart), "outside verify" (the
# tier-1 test that fails it, which the sweep runs on the mutant to check),
# or "undecided" (the claim that a new identity would decide).
CLASSES = {
    ("undecided", "the creation cutoff at N, which truncation-exactness decides since it reads "
                  "the images through rows of degree N + 1"): [
        ("fock", "Add -> Sub", "if «sum(k) + 1» > truncation:")],
    ("outside verify", "tests/test_exact.py::test_rational_sqrt"): [
        ("exact", "0 -> 1", "if f < «0»:"),
        ("exact", "Lt -> LtE", "if «f < 0»:")],
    ("outside verify", "tests/test_exact.py::test_field_axioms"): [
        ("exact", "Add -> Sub", "return GaussianRational._raw(«self.re + o.re», self.im + o.im)"),
        ("exact", "Add -> Sub", "return GaussianRational._raw(self.re + o.re, «self.im + o.im»)"),
        ("exact", "Sub -> Add", "return GaussianRational._raw(«self.re - o.re», self.im - o.im)"),
        ("exact", "Sub -> Add", "return GaussianRational._raw(self.re - o.re, «self.im - o.im»)"),
        ("exact", "Add -> Sub",
         "return GaussianRational._raw((«a * c + b * d») / n, (b * c - a * d) / n)")],
    ("outside verify", "tests/test_exact.py::test_scalar_basics"): [
        ("exact", "0 -> 1", "sign = \"+\" if self.im > «0» else \"-\"")],
    ("equivalent", "im == 0 returns above, so im >= 0 and im > 0 agree here"): [
        ("exact", "Gt -> GtE", "sign = \"+\" if «self.im > 0» else \"-\"")],
    ("equivalent", "the spare factor 2 divides back out: every store is kept in lowest terms"): [
        ("exact", "1 -> 2", "parts, den = [], «1»"),
        ("fock", "1 -> 2", "entries, den = [], «1»")],
    ("outside verify", "tests/test_exact.py::test_sparse_constructor_adds_repeated_positions"): [
        ("exact", "Add -> Sub", "c[k] = (a, b) if e is None else (e[0] + a, «e[1] + b»)")],
    ("outside verify", "tests/test_exact.py::test_cancellation_gives_canonical_zero"): [
        ("exact", "0 -> 1", "if not grid or not grid[«0»]:"),
        ("exact", "0 -> 1", "if any(len(r) != len(grid[«0»]) for r in grid):"),
        ("exact", "0 -> 1", "self.rows, self.cols = len(grid), len(grid[«0»])")],
    ("outside verify", "tests/test_exact.py::test_index_outside_the_shape_raises"): [
        ("exact", "Lt -> LtE", "if not (0 <= «i < self.rows» and 0 <= j < self.cols):"),
        ("exact", "Lt -> LtE", "if not (0 <= i < self.rows and 0 <= «j < self.cols»):")],
    ("outside verify", "tests/test_exact.py::test_commutator_and_trace"): [
        ("exact", "Add -> Sub", "«b += e[1]»")],
    ("outside verify", "tests/test_exact.py::test_matrix_json_round_trip"): [
        ("exact", "0 -> 1", "else list(_scalar(e[«0»], e[1], den).as_strings()))"),
        ("exact", "1 -> 2", "else list(_scalar(e[0], e[«1»], den).as_strings()))")],
    ("outside verify", "tests/test_exact.py::test_placed_stores"): [
        ("exact", "0 -> 1", "n = mats[«0»].cols"),
        ("exact", "2 -> 3", "if k < «2»:"),
        ("exact", "Lt -> LtE", "if «k < 2»:")],
    ("equivalent", "the lefts share one shape, and fewer than two raise either way"): [
        ("exact", "0 -> 1", "k, n = len(lefts), lefts[«0»].rows")],
    ("equivalent", "i == j is skipped just above"): [
        ("exact", "Lt -> LtE", "if «i < j»:")],
    ("outside verify", "tests/test_exact.py::test_inverse"): [
        ("exact", "unary minus dropped",
         "return adj.scale(_scalar(a._den * dr, «-a._den» * di, dr * dr + di * di))"),
        ("exact", "Add -> Sub",
         "return adj.scale(_scalar(a._den * dr, -a._den * di, «dr * dr + di * di»))")],
    ("outside verify", "tests/test_epsilon.py::test_label_parsing"): [
        ("epsilon", "1 -> 2", "label = t if len(t) == «1» else f\"[{t}]\""),
        ("epsilon", "2 -> 3", "if len(t) == «2» and all(c in \"1234\" for c in t):")],
    ("equivalent", "a permutation's entries are distinct, so a > b and a >= b agree"): [
        ("epsilon", "Gt -> GtE",
         "inversions = sum(«a > b» for i, a in enumerate(perm) for b in perm[i + 1:])")],
    ("outside verify", "tests/test_epsilon.py::test_bivector_sign_convention"): [
        ("epsilon", "0 -> 1", "return (None, «0»)")],
    ("equivalent", "mu == nu returns just above"): [
        ("epsilon", "Lt -> LtE", "if «mu < nu»:"),
        ("wave", "Lt -> LtE", "if «mu < nu»:")],
    ("equivalent", "the function takes no arguments, so its cache holds one entry at any size"): [
        ("wave", "1 -> 2", "@lru_cache(maxsize=«1»)")],
    ("outside verify", "tests/test_projectors.py::test_momentum_validation"): [
        ("projectors", "0 -> 1", "if m <= «0»:"),
        ("projectors", "LtE -> Lt", "if «m <= 0»:"),
        ("projectors", "0 -> 1", "if p0 <= «0»:")],
    ("equivalent", "p0 = 0 is off the shell for any positive mass: the shell test rejects it"): [
        ("projectors", "LtE -> Lt", "if «p0 <= 0»:")],
    ("equivalent", "the added real part is J_bc + J_cb = 0 over the two orders of each pair"): [
        ("projectors", "0 -> 1",
         "coeff = GaussianRational(«0», Fraction(-sign) * pa / (2 * norm))")],
    ("outside verify", "tests/test_projectors.py::test_spin_projection_structure"): [
        ("projectors", "unary minus dropped",
         "coeff = GaussianRational(0, Fraction(«-sign») * pa / (2 * norm))"),
        ("projectors", "Add -> Sub", "out = «out + w.lorentz_signed(b, c) * coeff»")],
    ("outside verify",
     "tests/test_projectors.py::test_pure_state_projector_argument_validation"): [
        ("projectors", "1 -> 2", "if eps not in («1», -1):")],
    ("outside verify", "tests/test_cli.py::test_dump_bytes_are_unchanged"): [
        ("projectors", "1 -> 2", "if eps not in (1, -«1»):"),
        ("projectors", "unary minus dropped", "if eps not in (1, «-1»):"),
        ("projectors", "0 -> 1", "return self.column.column(«0»)"),
        ("projectors", "0 -> 1", "return self.row.transpose().column(«0»)")],
    ("equivalent", "one more on every column's norm leaves the largest where it was"): [
        ("projectors", "0 -> 1", "norms = [«0»] * delta.cols")],
    ("equivalent", "nu is real and nonzero here, both checked just above"): [
        ("projectors", "Gt -> GtE", "norm_sign = 1 if «nu.re > 0» else -1")],
    ("outside verify", "tests/test_modes.py::test_observable_algebra_guard"): [
        ("modes", "2 -> 3", "if len(k) > «2»:")],
    ("outside verify", "tests/test_modes.py::test_product_adds_equal_monomials"): [
        ("modes", "Add -> Sub", "out[k] = (x, y) if e is None else («e[0] + x», e[1] + y)")],
    ("equivalent", "the rows added are for a ninth symbol no observable holds: zero everywhere"): [
        ("modes", "8 -> 9",
         "monomials = [()] + [(i,) for i in range(«8»)] + [(i, j) for "
         "i in range(8) for j in range(i, 8)]"),
        ("modes", "8 -> 9",
         "monomials = [()] + [(i,) for i in range(8)] + [(i, j) for i "
         "in range(«8») for j in range(i, 8)]"),
        ("modes", "8 -> 9",
         "monomials = [()] + [(i,) for i in range(8)] + [(i, j) for i "
         "in range(8) for j in range(i, «8»)]")],
    ("outside verify", "tests/test_modes.py::test_hamiltonian_single_excitation"): [
        ("modes", "0 -> 1", "if k0 <= «0»:")],
    ("outside verify", "tests/test_modes.py::test_mode_context_validation"): [
        ("modes", "LtE -> Lt", "if «k0 <= 0»:")],
    ("outside verify", "tests/test_modes.py::test_reality_pattern_enforced"): [
        ("modes", "4 -> 5", "if not (1 <= mu < nu <= «4»):"),
        ("modes", "Lt -> LtE", "if not (1 <= «mu < nu» <= 4):"),
        ("modes", "4 -> 5", "if not (1 <= mu <= nu <= «4»):")],
    ("equivalent", "every caller passes two terms of four entries, and only the length is read"): [
        ("modes", "0 -> 1", "out = [x * GR_ZERO for x in terms[«0»][1]]")],
    ("outside verify", "tests/test_modes.py::test_generator_matrix_is_the_amplitude_flow"): [
        ("modes", "Sub -> Add",
         "return («params.a * 2 - ExactMatrix.identity(4) * (GR_I * params.omega0)»")],
    ("equivalent", "the product added under key (8,) is never read"): [
        ("modes", "8 -> 9", "out = {(i,): QuadraticObservable.symbol(i) for i in range(«8»)}")],
    ("equivalent", "mu = 5 adds nothing: the inner range over nu is empty"): [
        ("modes", "5 -> 6", "for mu in range(1, «5»):"),
        ("fock", "5 -> 6", "for mu in range(1, «5»):")],
    ("equivalent", "the cache size changes no result"): [
        ("modes", "8 -> 9", "@lru_cache(maxsize=«8»)")],
    ("equivalent", "an antisymmetric table has no diagonal entry"): [
        ("modes", "Lt -> LtE", "if «i < j»:")],
    ("equivalent",
     "-E44 for E33 - E44 still spans the algebra, and no identity depends on the basis"): [
        ("modes", "3 -> 4", "for a in (1, 2, «3»):")],
    ("outside verify", "tests/test_fock.py::test_images_at_one_position_add_up"): [
        ("fock", "Add -> Sub",
         "out[rc] = (cr * f, ci * f) if e is None else (e[0] + cr * f, «e[1] + ci * f»)")],
    ("outside verify", "tests/test_fock.py::test_fock_kernel_matches_dict_reference"): [
        ("fock", "1 -> 2", "w = «1»"),
        ("fock", "Add -> Sub", "re += («p * r + q * t») * w"),
        ("fock", "Add -> Sub", "«im += (p * t - q * r) * w»"),
        ("fock", "Sub -> Add", "x = («a * cr - b * ci») * f")],
    ("equivalent", "the values added leave no room for n3: its range is empty"): [
        ("fock", "1 -> 2", "for n1 in range(d + «1»):"),
        ("fock", "Sub -> Add", "for n2 in range(«d - n1» + 1):"),
        ("fock", "1 -> 2", "for n2 in range(d - n1 + «1»):")],
    ("outside verify", "tests/test_fock.py::test_stacked_charge_table_matches_each_pair"): [
        ("fock", "1 -> 2", "if len({op.scheme for op in ops}) > «1»:")],
    ("equivalent",
     "the ops share one scheme (checked above), and fewer than two raise either way"): [
        ("fock", "0 -> 1",
         "return mat_commutators(tables, [_signed_rows(t, ops[«0»].scheme) for t in tables])")],
    ("outside verify", "tests/test_fock.py::test_integer_quantize_matches_the_rational_tables"): [
        ("fock", "0 -> 1", "s = 1 if p > «0» else -1"),
        ("fock", "1 -> 2", "s = 1 if p > 0 else -«1»"),
        ("fock", "unary minus dropped", "s = 1 if p > 0 else «-1»"),
        ("fock", "Sub -> Add", "x, y = «a * fr - b * fi», a * fi + b * fr"),
        ("fock", "Add -> Sub", "x, y = a * fr - b * fi, «a * fi + b * fr»")],
    ("equivalent", "p = 0 raises above"): [
        ("fock", "Gt -> GtE", "s = 1 if «p > 0» else -1")],
    ("outside verify", "tests/test_em.py::test_stokes_rejects_bad_states"): [
        ("em", "2 -> 3", "if any(k[«2»] or k[3] for k in s.coeffs):")],
}
SURVIVORS = {(module, code, op): ce
             for ce, group in CLASSES.items() for module, op, code in group}


class Mutator(ast.NodeTransformer):
    """Counts the mutable sites of a tree, children first, and mutates the target-th."""

    def __init__(self, target=None):
        self.sites, self.target = [], target

    def _site(self, node, operator, mutant, span=None):
        """Count one site; span, (first node, last node), is the source it covers."""
        first, last = span or (node, node)
        hit = len(self.sites) == self.target
        self.sites.append((node.lineno, operator, (first.lineno, first.col_offset,
                                                   last.end_lineno, last.end_col_offset)))
        return ast.copy_location(mutant(), node) if hit else node

    def _swap(self, node):
        self.generic_visit(node)
        swapped = SWAPPED.get(type(node.op))
        if swapped is None:
            return node
        return self._site(node, f"{type(node.op).__name__} -> {swapped.__name__}",
                          lambda: type(node)(**{**vars(node), "op": swapped()}))

    visit_BinOp = visit_AugAssign = _swap

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.USub):
            return node
        return self._site(node, "unary minus dropped", lambda: node.operand)

    def visit_Constant(self, node):
        if type(node.value) is not int:
            return node
        return self._site(node, f"{node.value} -> {node.value + 1}",
                          lambda: ast.Constant(node.value + 1))

    def visit_Compare(self, node):
        self.generic_visit(node)
        operands = [node.left, *node.comparators]
        for k, op in enumerate(node.ops):
            swapped = SWAPPED.get(type(op))
            if swapped is not None:
                ops = node.ops[:k] + [swapped()] + node.ops[k + 1:]
                node = self._site(node, f"{type(op).__name__} -> {swapped.__name__}",
                                  lambda ops=ops: ast.Compare(node.left, ops, node.comparators),
                                  operands[k:k + 2])
        return node


def mutant_source(text, target=None):
    """(the source with site target mutated, the list of (line, operator, span) sites)."""
    mutator = Mutator(target)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(text)))
    return ast.unparse(tree), mutator.sites


def crash_site(proc):
    """(where, the last stderr line) of a verify process that wrote no report."""
    err = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
    frames = [f"{module}.{fn}" for module, fn in FRAME.findall(proc.stderr)]
    if proc.returncode == 2:
        where = "config error"
    elif "cli.cmd_verify" not in frames:
        where = "import"
    elif "report.run" not in frames:
        where = "config"
    elif "report.validate" in frames:
        where = "validate"
    elif "suites.__init__" in frames:
        where = "constructor"
    else:
        where = frames[-1] if frames else "other"
    return where, err[-1]


def run_mutant(tree, module, original, target, test):
    """(class, detail) of one mutant, run in the package copy tree.

    The detail of a killed mutant is the set of identities it fails, of
    a crash-only one where it crashed, and of a survivor whether the
    tier-1 test `test` fails on it (None when test is None).
    """
    path = tree / "stueckelberg" / f"{module}.py"
    path.write_text(mutant_source(original, target)[0])
    try:
        outcomes, fails = [], set()
        for argv in CONFIGS:
            try:
                code, failing = _verify(tree, argv, timeout=30)
            except (subprocess.TimeoutExpired, ValueError):
                code, failing = None, set()
            fails |= failing
            outcomes.append((argv, "pass" if (code, failing) == (0, set())
                             else "fail" if failing else "crash"))
        crashed = [argv for argv, outcome in outcomes if outcome == "crash"]
        if fails:
            return "killed", fails
        if not crashed:
            return "survived", None if test is None else _test_fails(tree, test)
        try:
            return "crash-only", crash_site(_process(tree, crashed[0], timeout=30))
        except subprocess.TimeoutExpired:
            return "crash-only", ("timeout", "no exit in 30 s")
    finally:
        path.write_text(original)


# pytest with Hypothesis's example database off: with a fixed seed as well, a
# Hypothesis test draws the same examples on every run of the same mutant
PYTEST = ("import sys, pytest; from hypothesis import settings; "
          "settings.register_profile('sweep', database=None); settings.load_profile('sweep'); "
          "sys.exit(pytest.main(sys.argv[1:]))")


def _test_fails(tree, test):
    """Whether the tier-1 test `test` fails on the package copy tree.

    It runs with a fixed seed and no example database, so the verdict of
    a test that draws with Hypothesis is the same in every sweep.
    """
    env = {**os.environ, "PYTHONPATH": str(tree)}
    proc = subprocess.run([sys.executable, "-c", PYTEST, "-q", "-x", "-p", "no:cacheprovider",
                           "--hypothesis-seed=0", test], cwd=REPO, capture_output=True,
                          text=True, env=env, timeout=300)
    return proc.returncode == 1


def classify(module, code, op, current, test_failed):
    """{"class", "evidence"} of one survivor, from SURVIVORS and the current source.

    A site that no longer occurs in the current package is deleted; a
    survivor with no entry, or whose named test passed (test_failed is
    False, not None), is unclassified.
    """
    if (module, code, op) not in current:
        return {"class": "deleted", "evidence": "no such site in the current source"}
    cls, evidence = SURVIVORS.get((module, code, op), ("unclassified", "no entry in SURVIVORS"))
    if cls == "outside verify" and test_failed is False:
        cls, evidence = "unclassified", f"{evidence} passes this mutant"
    return {"class": cls, "evidence": evidence}


def sites(text):
    """The (line, code, operator) of each mutable site of a module's source.

    code is the site's source line, stripped, with the mutated expression
    in guillemets (to the line's end if it runs on), so a site keeps its
    name when lines above it come or go.
    """
    lines = [line.encode() for line in text.splitlines()]
    out = []
    for line, op, (l0, c0, l1, c1) in mutant_source(text)[1]:
        raw = lines[l0 - 1]
        end = c1 if l1 == l0 else len(raw)
        code = (raw[:c0] + "«".encode() + raw[c0:end] + "»".encode() + raw[end:]).decode()
        out.append((line, code.strip(), op))
    return out


def sweep(package, jobs):
    """The ledger entry of one package: per module counts, every survivor with its
    class, every killed mutant with the identities it fails, and every crash-only
    mutant with where it crashed."""
    sources = {m: (package / f"{m}.py").read_text() for m in MODULES}
    current = {(m, code, op) for m in MODULES
               for _, code, op in sites((PACKAGE / f"{m}.py").read_text())}
    # the tier-1 tests are the current package's: run them on its mutants only
    checked = package == PACKAGE
    work = []
    for m in MODULES:
        for k, (line, code, op) in enumerate(sites(sources[m])):
            cls, evidence = SURVIVORS.get((m, code, op), (None, None))
            test = evidence if checked and cls == "outside verify" else None
            work.append((m, k, line, code, op, test))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        trees = queue.Queue()
        for j in range(jobs):
            tree = Path(tmp) / f"tree{j}"
            shutil.copytree(package, tree / "stueckelberg",
                            ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(tree, quiet=1,
                                   invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
            # the unparsed, unmutated modules must pass, or no class below means anything
            for m in MODULES:
                (tree / "stueckelberg" / f"{m}.py").write_text(mutant_source(sources[m])[0])
            for argv in CONFIGS:
                if _verify(tree, argv) != (0, set()):
                    raise SystemExit(f"the unparsed, unmutated package fails {argv}")
            for m in MODULES:
                (tree / "stueckelberg" / f"{m}.py").write_text(sources[m])
            trees.put(tree)

        def one(item):
            tree = trees.get()
            try:
                return run_mutant(tree, item[0], sources[item[0]], item[1], item[5])
            finally:
                trees.put(tree)
        with ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(one, work))
    modules = {m: Counter({"mutants": 0, "survived": 0, "killed": 0, "crash-only": 0})
               for m in MODULES}
    survivors, kills, crashes = [], [], []
    for (m, _, line, code, op, _), (cls, detail) in zip(work, results):
        modules[m].update(("mutants", cls))
        key = f"{m}.py:{line} {op}"
        if cls == "survived":
            survivors.append({"site": key, "code": code,
                              **classify(m, code, op, current, detail)})
        elif cls == "killed":
            kills.append(f"{key}: {' '.join(sorted(detail))}")
        else:
            crashes.append((detail[0], f"{key}: {detail[0]}: {detail[1]}"))
    return {"configs": [" ".join(argv) for argv in CONFIGS],
            "tests run on survivors": checked,
            "modules": {m: dict(c) for m, c in modules.items()},
            "total": dict(sum(modules.values(), Counter())),
            "survivors by class": dict(Counter(s["class"] for s in survivors)),
            "crash-only by where": dict(Counter(where for where, _ in crashes)),
            "survivors": survivors,
            "crash-only": [text for _, text in crashes],
            "killed": kills}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--package", type=Path, default=PACKAGE,
                    help="the stueckelberg package directory to mutate")
    ap.add_argument("--out", type=Path, required=True, help="the JSON ledger to update")
    ap.add_argument("--label", required=True, help="the ledger key of this sweep")
    ap.add_argument("--jobs", type=int, default=2, help="mutants run at a time")
    args = ap.parse_args()
    ledger = json.loads(args.out.read_text()) if args.out.exists() else {}
    ledger[args.label] = sweep(args.package.resolve(), args.jobs)
    args.out.write_text(json.dumps(ledger, indent=1, ensure_ascii=False) + "\n")
    print(json.dumps(ledger[args.label]["total"]),
          json.dumps(ledger[args.label]["survivors by class"]))


if __name__ == "__main__":
    main()
