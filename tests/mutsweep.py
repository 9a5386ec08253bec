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

A crash names where it happened: at import, while the config is read
or validated, in a suite constructor, or elsewhere.  Run it, from the
repository root, as

    PYTHONPATH=src python tests/mutsweep.py --label change --out tests/mutsweep.json

`--package DIR` sweeps another copy of the package (say, an older
commit's) and `--jobs N` runs N mutants at a time, each in its own copy.
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
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from test_mutations import PACKAGE, _process, _verify

MODULES = ("exact", "epsilon", "wave", "projectors", "modes", "fock", "em")
CONFIGS = (("verify", "all", "--k0", "37/11"),
           ("verify", "all", "--k0", "37/11", "--mass=125/7", "--momentum=-180/7,192/7,144/7"))
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
           ast.Gt: ast.GtE, ast.GtE: ast.Gt}
FRAME = re.compile(r'File ".*?stueckelberg/(\w+)\.py", line \d+, in (\S+)')


class Mutator(ast.NodeTransformer):
    """Counts the mutable sites of a tree, children first, and mutates the target-th."""

    def __init__(self, target=None):
        self.sites, self.target = [], target

    def _site(self, node, operator, mutant):
        hit = len(self.sites) == self.target
        self.sites.append((node.lineno, operator))
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
        for k, op in enumerate(node.ops):
            swapped = SWAPPED.get(type(op))
            if swapped is not None:
                ops = node.ops[:k] + [swapped()] + node.ops[k + 1:]
                node = self._site(node, f"{type(op).__name__} -> {swapped.__name__}",
                                  lambda ops=ops: ast.Compare(node.left, ops, node.comparators))
        return node


def mutant_source(text, target=None):
    """(the source with site target mutated, the list of (line, operator) sites)."""
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


def run_mutant(tree, module, original, target):
    """(class, crash or None) of one mutant, run in the package copy tree."""
    path = tree / "stueckelberg" / f"{module}.py"
    path.write_text(mutant_source(original, target)[0])
    try:
        outcomes = []
        for argv in CONFIGS:
            try:
                code, failing = _verify(tree, argv, timeout=30)
            except (subprocess.TimeoutExpired, ValueError):
                code, failing = None, set()
            outcomes.append((argv, "pass" if (code, failing) == (0, set())
                             else "fail" if failing else "crash"))
        crashed = [argv for argv, outcome in outcomes if outcome == "crash"]
        if any(outcome == "fail" for _, outcome in outcomes):
            return "killed", None
        if not crashed:
            return "survived", None
        try:
            return "crash-only", crash_site(_process(tree, crashed[0], timeout=30))
        except subprocess.TimeoutExpired:
            return "crash-only", ("timeout", "no exit in 30 s")
    finally:
        path.write_text(original)


def sweep(package, jobs):
    """The ledger entry of one package: per module counts, and every crash-only mutant."""
    sources = {m: (package / f"{m}.py").read_text() for m in MODULES}
    work = [(m, k, line, op) for m in MODULES
            for k, (line, op) in enumerate(mutant_source(sources[m])[1])]
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
                return run_mutant(tree, item[0], sources[item[0]], item[1])
            finally:
                trees.put(tree)
        with ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(one, work))
    modules = {m: Counter({"mutants": 0, "survived": 0, "killed": 0, "crash-only": 0})
               for m in MODULES}
    crashes = []
    for (m, _, line, op), (cls, crash) in zip(work, results):
        modules[m].update(("mutants", cls))
        if crash:
            crashes.append((crash[0], f"{m}.py:{line} {op}: {crash[0]}: {crash[1]}"))
    return {"configs": [" ".join(argv) for argv in CONFIGS],
            "modules": {m: dict(c) for m, c in modules.items()},
            "total": dict(sum(modules.values(), Counter())),
            "crash-only by where": dict(Counter(where for where, _ in crashes)),
            "crash-only": [text for _, text in crashes]}


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
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(json.dumps(ledger[args.label]["total"]))


if __name__ == "__main__":
    main()
