"""Traced in-process run: where each workload's time goes, per module.

    python3 perfbench/tracer.py --workload NAME --seed N --seconds S --spans FILE

run.py starts this in a process of its own, with PYTHONPATH set to the
checkout's `src/`, so the package import is timed cold.  The tracer
wraps public functions of each stueckelberg module at their module or
class attribute (nothing in `src/` changes) and runs the workload's
operations through `stueckelberg.cli.main` twice per round: once
untraced and once traced.  The difference of the two pass times is the
tracing overhead.  The end-to-end metrics never come from this process.

Coarse calls (operations, suites, identities, builders) become spans
with a name, start, end, parent and the scalar-operation counts taken
between their start and end.  Hot calls (matrix products, Fock
operator actions, brackets) are aggregated: total calls and time, both
globally and per enclosing span.  Scalar `GaussianRational` operations
are only counted, and sampled; their per-call times, and those of an
11x11 unit pair and a dense projector pair, come from microbenchmarks
on operands sampled from the workload's own run.  Spans are kept in
memory and written to FILE at the end; the last stdout line is a JSON
object with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

perf_counter = time.perf_counter

SUITES = ("algebra", "projectors", "u31", "fock", "em")
HEAVY_IDENTITIES = (
    ("algebra", "unit-product-rule"), ("algebra", "cubic-alpha"),
    ("algebra", "rotation-closure"), ("algebra", "trilinear-beta1"),
    ("projectors", "state-orthogonal"), ("projectors", "state-idempotent"),
    ("projectors", "component-layout"), ("projectors", "spin2-dual-route"),
    ("fock", "truncation-exactness"), ("fock", "gram-indefinite"),
    ("fock", "charges-commute-energy"), ("fock", "gram-positive-scheme1"),
    ("u31", "structure-constants"), ("em", "adjoint-homomorphism"),
)
SAMPLE_CAP = 256
MICRO_REPEATS = 7


def _bits(values):
    """Largest numerator or denominator bit length among Gaussian rationals."""
    best = 0
    for v in values:
        for f in (v.re, v.im):
            best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _matrix_bits(m):
    return _bits(e for row in m._m for e in row)


class Sampler:
    """Every stride-th offered item, thinned so the sample spans the whole run."""

    def __init__(self):
        self.items = []
        self.stride = 64

    def keep(self, item):
        self.items.append(item)
        if len(self.items) == 2 * SAMPLE_CAP:
            del self.items[1::2]
            self.stride *= 2


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans = []
        self.stack = []
        self.totals = defaultdict(lambda: [0, 0.0])
        self.counters = {"mul": [0], "add": [0], "bool": [0]}
        self.samplers = {k: Sampler() for k in self.counters}
        self.unit_pair = []
        self.dense_pair = []
        self.dense_bits = -1
        self.coeff_bits = 0
        self.basis_size = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _counts(self):
        return {k: c[0] for k, c in self.counters.items()}

    def span(self, name, fn, attrs=None, after=None):
        stack, spans, totals = self.stack, self.spans, self.totals[name]

        def wrapper(*args, **kwargs):
            s = {"id": len(spans), "name": name,
                 "parent": stack[-1]["id"] if stack else None,
                 "start": perf_counter() - self.origin, "end": None,
                 "attrs": attrs(*args) if attrs else {}, "calls": {}}
            before = self._counts()
            spans.append(s)
            stack.append(s)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                s["end"] = perf_counter() - self.origin
                now = self._counts()
                s["counts"] = {k: now[k] - before[k] for k in now}
                totals[0] += 1
                totals[1] += s["end"] - s["start"]
            if after:
                after(s, args, result)
            return result
        return wrapper

    def hot(self, name, fn, after=None):
        stack, totals = self.stack, self.totals[name]
        active = [False]

        def wrapper(*args, **kwargs):
            totals[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[0] = False
                totals[1] += dt
                if stack:
                    agg = stack[-1]["calls"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
            if after:
                after(args, result)
            return result
        return wrapper

    def counter(self, key, fn, unary=False):
        count, sampler = self.counters[key], self.samplers[key]

        if unary:
            def wrapper(a):
                count[0] += 1
                if not count[0] % sampler.stride:
                    sampler.keep(a)
                return fn(a)
        else:
            def wrapper(a, b):
                count[0] += 1
                if not count[0] % sampler.stride:
                    sampler.keep((a, b))
                return fn(a, b)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make):
        """Replace a function in every stueckelberg module that imported it."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "stueckelberg"]:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, new)

    def patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        if isinstance(orig, staticmethod):
            self._set(cls, attr, staticmethod(make(orig.__func__)))
        else:
            self._set(cls, attr, make(orig))

    def install(self, pkg):
        exact, fock, suites = pkg["exact"], pkg["fock"], pkg["suites"]
        gr = exact.GaussianRational
        for attr, key in (("__mul__", "mul"), ("__rmul__", "mul"),
                          ("__add__", "add"), ("__radd__", "add")):
            self.patch_method(gr, attr, lambda f, key=key: self.counter(key, f))
        self.patch_method(gr, "__bool__", lambda f: self.counter("bool", f, unary=True))

        self.patch_method(exact.ExactMatrix, "__matmul__",
                          lambda f: self.hot("exact.matmul", f))
        self.patch_function(exact, "mat_rank",
                            lambda f: self.hot("exact.mat_rank", f, after=self._on_rank))
        self.patch_function(pkg["epsilon"], "epsilon",
                            lambda f: self.hot("epsilon.units", f, after=self._on_unit))
        self.patch_function(pkg["wave"], "wave_matrices",
                            lambda f: self.hot("wave.wave_matrices", f))
        prj = pkg["projectors"]
        self.patch_method(prj.ProjectorFamily, "build",
                          lambda f: self.span("projectors.family_build", f,
                                              after=self._on_family))
        self.patch_function(prj, "spin_squared",
                            lambda f: self.hot("projectors.spin_squared", f))
        self.patch_function(prj, "dyad_factorize",
                            lambda f: self.hot("projectors.dyad_factorize", f,
                                               after=self._on_dyad))
        for attr in ("poisson_bracket", "decompose_generator"):
            self.patch_function(pkg["modes"], attr,
                                lambda f, attr=attr: self.hot(f"modes.{attr}", f))
        self.patch_method(fock.BilinearOperator, "apply", lambda f: self.hot("fock.apply", f))
        self.patch_method(fock.BilinearOperator, "commutator",
                          lambda f: self.hot("fock.commutator", f))
        self.patch_function(fock, "apply_ladder", lambda f: self.hot("fock.apply_ladder", f))
        self.patch_function(fock, "monomial_basis",
                            lambda f: self.hot("fock.monomial_basis", f, after=self._on_basis))
        self.patch_function(fock, "normalized_gram",
                            lambda f: self.span("fock.normalized_gram", f))
        self.patch_function(pkg["em"], "stokes_expectations", lambda f: self.hot("em.stokes", f))

        runners = suites.SUITE_RUNNERS
        for name, fn in list(runners.items()):
            self._undo.append((runners, name, fn))
            runners[name] = self.span("suite", fn, attrs=lambda cfg, name=name: {"suite": name},
                                      after=self._on_suite)
        self.patch_method(suites.Recorder, "check",
                          lambda f: self.span("check", f, attrs=lambda rec, ident, *_: {
                              "suite": rec.suite, "ident": ident}))
        self.patch_function(pkg["report"], "run", lambda f: self.span("report.run", f))
        self.patch_method(pkg["report"].VerificationReport, "to_json",
                          lambda f: self.span("report.to_json", f))
        self.patch_function(pkg["cli"], "cmd_dump_gram", lambda f: self.span("cli.dump_gram", f))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- observers ---------------------------------------------------------

    def _on_rank(self, args, result):
        self.coeff_bits = max(self.coeff_bits, _matrix_bits(args[0]))

    def _on_unit(self, args, unit):
        if unit.rows == 11 and len(self.unit_pair) < 2:
            self.unit_pair.append(unit)

    def _on_family(self, span, args, fam):
        mats = [fam.m_plus, fam.m_minus, fam.sigma2] + list(fam.deltas.values())
        bits = max(_matrix_bits(m) for m in mats)
        self.coeff_bits = max(self.coeff_bits, bits)
        span["attrs"]["coeff_bits"] = bits
        if fam.deltas and bits > self.dense_bits:
            self.dense_bits = bits
            self.dense_pair = [fam.deltas[(1, 1, 1)], fam.deltas[(1, 1, -1)]]

    def _on_dyad(self, args, dyad):
        self.coeff_bits = max(self.coeff_bits, _bits(dyad.psi + dyad.psi_bar))

    def _on_basis(self, args, basis):
        self.basis_size = max(self.basis_size, len(basis))

    def _on_suite(self, span, args, records):
        span["attrs"]["checks_ms"] = sum(r.elapsed_ms or 0.0 for r in records)


# -- running operations -------------------------------------------------------

class Program:
    """The package imported once and driven through `cli.main` in-process."""

    def __init__(self):
        t0 = perf_counter()
        import stueckelberg.cli
        self.import_ms = (perf_counter() - t0) * 1e3
        self.cli = stueckelberg.cli
        self.modules = {name: sys.modules[f"stueckelberg.{name}"] for name in (
            "exact", "epsilon", "wave", "projectors", "modes", "fock", "em", "suites",
            "report", "cli")}
        # the functools caches, found before any attribute is wrapped
        self.caches = list({id(v): v for mod in self.modules.values()
                            for v in vars(mod).values() if hasattr(v, "cache_clear")}.values())

    def run(self, argv):
        """One operation, with the caches as empty as in a fresh process."""
        for cache in self.caches:
            cache.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                return 1, f"{type(exc).__name__}: {exc}".encode()
        return code, buf.getvalue().encode()


def timed_pass(program, ops, expected, tracer=None):
    failures = []
    t0 = perf_counter()
    for argv in ops:
        if tracer is None:
            code, out = program.run(argv)
        else:
            root = tracer.span("op", program.run, attrs=lambda a: {"argv": a})
            code, out = root(argv)
        why = checks.check(argv, code, out, expected)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")
    return (perf_counter() - t0) * 1e3, failures


# -- metrics ------------------------------------------------------------------

UNITS = {"calls": "count", "ms": "ms", "us": "us", "ns": "ns", "max": "bits", "size": "count"}


def per_call(fn, n, repeats=MICRO_REPEATS):
    """Median over repeats of the time per call of fn, which makes n calls."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def microbenchmarks(tr):
    def scalar_loop(pairs, op):
        def loop():
            for a, b in pairs:
                op(a, b)
        return loop

    out = {}
    mul, add = tr.samplers["mul"].items, tr.samplers["add"].items
    zeros = tr.samplers["bool"].items
    out["exact.scalar_mul.ns"] = per_call(scalar_loop(mul, lambda a, b: a * b), len(mul)) * 1e9 if mul else 0.0
    out["exact.scalar_add.ns"] = per_call(scalar_loop(add, lambda a, b: a + b), len(add)) * 1e9 if add else 0.0

    def zero_loop():
        for a in zeros:
            if a:
                pass
    out["exact.zero_test.ns"] = per_call(zero_loop, len(zeros)) * 1e9 if zeros else 0.0
    for key, pair, n in (("exact.matmul_unit.us", tr.unit_pair, 200),
                         ("exact.matmul_dense.us", tr.dense_pair, 3)):
        if len(pair) == 2:
            a, b = pair

            def loop(a=a, b=b, n=n):
                for _ in range(n):
                    a @ b
            out[key] = per_call(loop, n) * 1e6
        else:
            out[key] = 0.0
    out["exact.coeff_bits.max"] = max(tr.coeff_bits, _bits(
        x for pair in mul for x in pair if hasattr(x, "re")))
    return out


def _is_parallel(argv):
    return any(a.startswith("--workers=") and int(a.split("=")[1]) > 1 for a in argv)


def pool_overhead_ms(spans):
    """Parallel `report.run` minus the slowest suite of its serial twin.

    A parallel operation's suites run in pool workers, out of the
    tracer's sight; its twin is the serial operation of the same pass
    with the same digest key.
    """
    def root(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
        return s

    run_ms, slowest_suite, key_of = {}, defaultdict(float), {}
    for s in spans:
        dur = (s["end"] - s["start"]) * 1e3
        r = root(s)
        if s["name"] == "op":
            key_of[s["id"]] = (checks.digest_key(s["attrs"]["argv"]),
                               _is_parallel(s["attrs"]["argv"]))
        elif s["name"] == "report.run":
            run_ms[r["id"]] = dur
        elif s["name"] == "suite":
            slowest_suite[r["id"]] = max(slowest_suite[r["id"]], dur)
    serial = {key: op for op, (key, par) in key_of.items() if not par}
    return sum(run_ms[op] - slowest_suite[serial[key]] for op, (key, par) in key_of.items()
               if par and key in serial and op in run_ms)


def layer_metrics(tr):
    tot = tr.totals
    m = {}

    def ms(name):
        return tot[name][1] * 1e3 if name in tot else 0.0

    def calls(name):
        return tot[name][0] if name in tot else 0

    for name in ("exact.matmul", "exact.mat_rank", "wave.wave_matrices",
                 "modes.poisson_bracket", "fock.apply", "fock.commutator"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = ms(name)
    m["exact.scalar_mul.calls"] = tr.counters["mul"][0]
    m["exact.scalar_add.calls"] = tr.counters["add"][0]
    m["exact.zero_test.calls"] = tr.counters["bool"][0]
    for name, metric in (("epsilon.units", "epsilon.units.ms"),
                         ("projectors.family_build", "projectors.family_build.ms"),
                         ("projectors.spin_squared", "projectors.spin_squared.ms"),
                         ("projectors.dyad_factorize", "projectors.dyad_factorize.ms"),
                         ("modes.decompose_generator", "modes.decompose_generator.ms"),
                         ("fock.apply_ladder", "fock.apply_ladder.ms"),
                         ("fock.normalized_gram", "fock.normalized_gram.ms"),
                         ("em.stokes", "em.stokes.ms"),
                         ("report.to_json", "report.to_json.ms")):
        m[metric] = ms(name)
    m["fock.basis.size"] = tr.basis_size

    suite_ms = dict.fromkeys(SUITES, 0.0)
    outside = dict.fromkeys(SUITES, 0.0)
    ident_ms = dict.fromkeys(HEAVY_IDENTITIES, 0.0)
    gram_ms, gram_inner_ms = 0.0, 0.0
    for s in tr.spans:
        dur = (s["end"] - s["start"]) * 1e3
        if s["name"] == "suite":
            suite_ms[s["attrs"]["suite"]] += dur
            outside[s["attrs"]["suite"]] += dur - s["attrs"].get("checks_ms", 0.0)
        elif s["name"] == "check":
            key = (s["attrs"]["suite"], s["attrs"]["ident"])
            if key in ident_ms:
                ident_ms[key] += dur
        elif s["name"] == "cli.dump_gram":
            gram_ms += dur
        elif s["name"] == "fock.normalized_gram" and s["parent"] is not None \
                and tr.spans[s["parent"]]["name"] == "cli.dump_gram":
            gram_inner_ms += dur
    for s in SUITES:
        m[f"suites.{s}.ms"] = suite_ms[s]
        m[f"suites.{s}.outside_checks.ms"] = outside[s]
    for (s, ident), v in ident_ms.items():
        m[f"id.{s}.{ident}.ms"] = v
    m["report.run.ms"] = ms("report.run")
    m["report.pool_overhead.ms"] = pool_overhead_ms(tr.spans)
    m["cli.dump_gram_json.ms"] = gram_ms - gram_inner_ms
    return m


def main():
    start = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    program = Program()
    expected = checks.load_expected()
    ops = workloads.operations(args.workload, args.seed)
    rounds, failures, attempted = [], [], 0
    while True:
        # alternate which pass goes first, so drifts in host speed do not
        # bias the overhead one way
        traced_first = len(rounds) % 2 == 1
        if not traced_first:
            untraced_ms, fails = timed_pass(program, ops, expected)
            failures += fails
        tr = Tracer()
        tr.install(program.modules)
        try:
            traced_ms, fails = timed_pass(program, ops, expected, tr)
            failures += fails
        finally:
            tr.uninstall()
        if traced_first:
            untraced_ms, fails = timed_pass(program, ops, expected)
            failures += fails
        attempted += 2 * len(ops)
        m = layer_metrics(tr)
        m.update(microbenchmarks(tr))
        m["cli.import.ms"] = program.import_ms
        m["trace.untraced_pass.ms"] = untraced_ms
        m["trace.traced_pass.ms"] = traced_ms
        m["trace.overhead.ms"] = traced_ms - untraced_ms
        rounds.append((m, tr.spans))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    metrics = {name: (statistics.median(r[0][name] for r in rounds),
                      UNITS[name.rsplit(".", 1)[1]])
               for name in rounds[0][0]}
    with open(args.spans, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "operations": ops,
                   "rounds": [{"metrics": m, "spans": spans} for m, spans in rounds]}, fh)
    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "failures": failures, "rounds": len(rounds), "metrics": metrics}))


if __name__ == "__main__":
    main()
