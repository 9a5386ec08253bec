"""Acceptance gate: each criterion checked at its stated budget.

Every test prints one `criterion NN ...: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them as they execute.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from stueckelberg.report import SuiteConfig
from stueckelberg.suites import run_suite

MOMENTA = [(4, (0, 0, 3)), (12, (3, 4, 0)), (24, (2, 3, 6))]


def _record(records, ident):
    matches = [r for r in records if r.ident == ident]
    assert matches, f"identity {ident} missing from the report"
    return matches[0]


def _conclude(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} ({label}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def algebra_records():
    t0 = time.perf_counter()
    records = run_suite("algebra", SuiteConfig())
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def projector_runs():
    runs = []
    t0 = time.perf_counter()
    for mass, momentum in MOMENTA:
        cfg = SuiteConfig(mass=Fraction(mass),
                          momentum=tuple(Fraction(c) for c in momentum))
        runs.append(((mass, momentum), run_suite("projectors", cfg)))
    return runs, time.perf_counter() - t0


def test_criterion_01_unit_product_rule(algebra_records):
    records, _ = algebra_records
    rec = _record(records, "unit-product-rule")
    ok = rec.status == "pass" and rec.elapsed_ms < 150
    _conclude(1, "matrix-unit product rule, 14641 pairs under 0.15 s", ok,
              f"{rec.elapsed_ms:.0f} ms")


def test_criterion_02_trilinear_algebra(algebra_records):
    records, _ = algebra_records
    recs = [_record(records, ident) for ident in
            ("trilinear-beta1", "trilinear-beta0", "trilinear-alpha-negative")]
    elapsed = sum(r.elapsed_ms for r in recs)
    ok = all(r.status == "pass" for r in recs) and elapsed < 150
    _conclude(2, "trilinear relation on both blocks with negative control, under 0.15 s",
              ok, f"{elapsed:.0f} ms")


def test_criterion_03_cubic_algebra(algebra_records):
    records, _ = algebra_records
    rec = _record(records, "cubic-alpha")
    ok = rec.status == "pass" and rec.elapsed_ms < 150
    _conclude(3, "cubic relation on all 64 triples, under 0.15 s", ok,
              f"{rec.elapsed_ms:.0f} ms")


def test_criterion_04_rotation_structure(algebra_records):
    records, _ = algebra_records
    recs = [_record(records, i) for i in ("rotation-closure", "alpha-rotation-bracket")]
    elapsed = sum(r.elapsed_ms for r in recs)
    ok = all(r.status == "pass" for r in recs) and elapsed < 150
    _conclude(4, "rotation generator structure, all pairs and mixed brackets, under 0.15 s",
              ok, f"{elapsed:.0f} ms")


def test_criterion_05_metric_matrix(algebra_records):
    records, _ = algebra_records
    idents = ("eta-anticommutes-spatial", "eta-commutes-time",
              "eta-hermitian", "eta-involution")
    ok = all(_record(records, i).status == "pass" for i in idents)
    _conclude(5, "metric matrix: sign pattern, Hermitian, involution", ok)


def test_criterion_06_projector_suite(projector_runs):
    runs, elapsed = projector_runs
    problems = []
    for (mass, momentum), records in runs:
        for rec in records:
            if rec.status != "pass":
                problems.append(f"{mass},{momentum}: {rec.ident}={rec.status}")
    ok = not problems and elapsed < 1.5
    _conclude(6, "full projector and dyad suite at three momenta, under 1.5 s",
              ok, f"{elapsed:.1f} s" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_07_canonical_formalism():
    t0 = time.perf_counter()
    records = run_suite("u31", SuiteConfig())
    elapsed = time.perf_counter() - t0
    needed = ("charges-conserved", "generating-function", "structure-constants",
              "hamiltonian-two-forms")
    ok = all(_record(records, i).status == "pass" for i in needed)
    ok = ok and all(r.status == "pass" for r in records) and elapsed < 0.75
    _conclude(7, "canonical charges, generating function, structure constants, under 0.75 s",
              ok, f"{elapsed:.1f} s")


def test_criterion_08_fock_suite():
    t0 = time.perf_counter()
    records = run_suite("fock", SuiteConfig(truncation=6, scheme="both"))
    elapsed = time.perf_counter() - t0
    needed = ("ladder-incorrect-sign", "gram-indefinite", "energy-nonnegative",
              "energy-indefinite-scheme1", "charges-commute-energy",
              "physical-decomposition", "truncation-exactness")
    ok = all(_record(records, i).status == "pass" for i in needed)
    ok = ok and all(r.status == "pass" for r in records) and elapsed < 0.035
    _conclude(8, "indefinite-metric Fock suite at truncation 6, under 35 ms",
              ok, f"{elapsed * 1e3:.1f} ms")


def test_criterion_09_em_suite():
    t0 = time.perf_counter()
    records = run_suite("em", SuiteConfig())
    elapsed = time.perf_counter() - t0
    needed = ("su2-commutators", "rotations-commute-number", "u2-invariance",
              "dual-group-law", "dual-stokes-rotation")
    ok = all(_record(records, i).status == "pass" for i in needed)
    ok = ok and all(r.status == "pass" for r in records) and elapsed < 0.02
    _conclude(9, "two-mode reduction: charge algebra, invariance, dual rotations, under 20 ms",
              ok, f"{elapsed * 1e3:.1f} ms")


def test_criterion_10_cli_contract(tmp_path):
    base = [sys.executable, "-m", "stueckelberg.cli"]
    env = {k: v for k, v in os.environ.items() if k != "STUECKELBERG_INJECT_FAIL"}

    first = subprocess.run(base + ["verify", "all", "--json", "--no-timing"],
                           capture_output=True, env=env)
    second = subprocess.run(base + ["verify", "all", "--json", "--no-timing"],
                            capture_output=True, env=env)
    deterministic = first.stdout == second.stdout and first.returncode == 0

    doc = json.loads(first.stdout)
    all_pass = doc["summary"]["failed"] == 0 and doc["summary"]["total"] > 0

    mutated_env = dict(env, STUECKELBERG_INJECT_FAIL="eta-hermitian")
    mutated = subprocess.run(base + ["verify", "algebra", "--json", "--no-timing"],
                             capture_output=True, env=mutated_env)
    exit_fail = mutated.returncode == 1
    mdoc = json.loads(mutated.stdout)
    flagged = any(r["status"] == "fail" and r["id"] == "eta-hermitian"
                  for r in mdoc["identities"])

    config_err = subprocess.run(
        base + ["verify", "projectors", "--mass", "1", "--momentum", "1,1,0"],
        capture_output=True, env=env)
    exit_config = config_err.returncode == 2

    ok = deterministic and all_pass and exit_fail and flagged and exit_config
    _conclude(10, "CLI determinism and exit-code contract", ok,
              f"deterministic={deterministic} pass={all_pass} "
              f"mutation={exit_fail and flagged} config={exit_config}")
