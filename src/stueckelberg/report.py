"""Suite orchestration and machine-readable reporting.

The report is deterministic: identical configuration yields byte
identical JSON once timing is suppressed.  Exit codes: 0 all identities
pass (skips allowed for documented degenerate input), 1 any identity
fails, 2 configuration error.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction

from .exact import as_fraction, fraction_str
from .projectors import FourMomentum, IrrationalMomentumError
from .suites import ALL_SUITES, SUITE_RUNNERS, IdentityRecord

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# Largest accepted Fock truncation.  The fock suite's cost grows with the
# basis size C(N+4, 4): `verify fock --scheme both` in a fresh process on
# a 2-vCPU Xeon host takes 0.2 s at N = 10, 1.0 s (34 MB peak) at N = 20
# and 2.6 s (70 MB peak) at N = 26; N = 28 took up to 3.8 s.
MAX_TRUNCATION = 26

INJECT_ENV = "STUECKELBERG_INJECT_FAIL"
WORKERS_ENV = "STUECKELBERG_WORKERS"


class ConfigError(ValueError):
    """Invalid suite configuration; maps to exit code 2."""


class SuiteConfig(namedtuple("SuiteConfig", "suites mass momentum k0 truncation scheme "
                              "timing workers")):
    """One verification run's settings; `validate` checks them."""

    __slots__ = ()

    def __new__(cls, suites=ALL_SUITES, mass=Fraction(4),
                momentum=(Fraction(0), Fraction(0), Fraction(3)), k0=Fraction(5),
                truncation=6, scheme="both", timing=True, workers=1):
        return super().__new__(cls, tuple(suites), as_fraction(mass),
                               tuple(as_fraction(c) for c in momentum), as_fraction(k0),
                               truncation, scheme, timing, workers)

    def validate(self):
        if not self.suites:
            raise ConfigError("no suite to run")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ConfigError(f"unknown suite {s!r}; choose from {', '.join(ALL_SUITES)}")
        if self.mass <= 0:
            raise ConfigError("mass must be positive")
        if self.k0 <= 0:
            raise ConfigError("k0 must be positive")
        if self.scheme not in ("1", "2", "both"):
            raise ConfigError("scheme must be 1, 2 or both")
        if self.truncation < 2:
            raise ConfigError("truncation below the operator degree 2 is unusable")
        if self.truncation > MAX_TRUNCATION:
            raise ConfigError(f"truncation above the cap {MAX_TRUNCATION}")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        if "projectors" in self.suites:
            try:
                FourMomentum.from_mass_and_momentum(self.mass, self.momentum).spatial_norm()
            except IrrationalMomentumError as exc:
                raise ConfigError(str(exc)) from None

    def describe(self):
        return {
            "suites": list(self.suites),
            "mass": fraction_str(self.mass),
            "momentum": [fraction_str(c) for c in self.momentum],
            "k0": fraction_str(self.k0),
            "truncation": self.truncation,
            "scheme": self.scheme,
        }


class VerificationReport:
    """The records of one run, under the configuration that produced them."""

    __slots__ = ("config", "records")

    def __init__(self, config: SuiteConfig, records=None):
        self.config = config
        self.records = [] if records is None else records

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "skip": 0}
        for rec in self.records:
            c[rec.status] += 1
        return c

    @property
    def exit_code(self):
        return EXIT_FAIL if self.counts["fail"] else EXIT_PASS

    def to_json_obj(self):
        ids = []
        for rec in self.records:
            d = {"suite": rec.suite, "id": rec.ident, "claim": rec.claim,
                 "status": rec.status}
            if rec.witness is not None:
                d["witness"] = rec.witness
            if rec.reason is not None:
                d["reason"] = rec.reason
            if self.config.timing and rec.elapsed_ms is not None:
                d["elapsed_ms"] = round(rec.elapsed_ms, 3)
            ids.append(d)
        c = self.counts
        return {
            "config": self.config.describe(),
            "identities": ids,
            "summary": {"total": len(self.records), "passed": c["pass"],
                        "failed": c["fail"], "skipped": c["skip"]},
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def to_text(self):
        lines = []
        width = max((len(f"{r.suite}/{r.ident}") for r in self.records), default=0)
        for rec in self.records:
            tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[rec.status]
            name = f"{rec.suite}/{rec.ident}".ljust(width)
            extra = ""
            if rec.status == "fail" and rec.witness:
                extra = f"  [{rec.witness}]"
            elif rec.status == "skip" and rec.reason:
                extra = f"  [{rec.reason}]"
            if self.config.timing and rec.elapsed_ms is not None:
                extra += f"  ({rec.elapsed_ms:.1f} ms)"
            lines.append(f"{tag}  {name}  {rec.claim}{extra}")
        c = self.counts
        lines.append(f"total {len(self.records)}: {c['pass']} passed, "
                     f"{c['fail']} failed, {c['skip']} skipped")
        return "\n".join(lines) + "\n"


def _run_one(args):
    name, cfg = args
    return SUITE_RUNNERS[name](cfg)


def _process_pool(workers):
    """A pool of `workers` processes.  Its machinery (multiprocessing,
    logging, socket, subprocess) is imported here, so that no process but
    a parallel `verify` loads it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run(cfg: SuiteConfig) -> VerificationReport:
    """Validate the configuration, run the selected suites, assemble the report."""
    cfg.validate()
    ordered = [s for s in ALL_SUITES if s in cfg.suites]
    if cfg.workers > 1 and len(ordered) > 1:
        with _process_pool(min(cfg.workers, len(ordered))) as pool:
            chunks = list(pool.map(_run_one, [(s, cfg) for s in ordered]))
    else:
        chunks = [_run_one((s, cfg)) for s in ordered]
    records = [rec for chunk in chunks for rec in chunk]
    inject = os.environ.get(INJECT_ENV)
    if inject:
        records = _inject_failure(records, inject)
    return VerificationReport(config=cfg, records=records)


def _inject_failure(records, target):
    """Self-test hook: force one identity to fail to exercise the exit contract."""
    hit = False
    out = []
    for rec in records:
        full = f"{rec.suite}/{rec.ident}"
        if target in (rec.ident, full):
            rec = IdentityRecord(suite=rec.suite, ident=rec.ident, claim=rec.claim,
                                 status="fail", witness="injected failure (self-test hook)",
                                 elapsed_ms=rec.elapsed_ms)
            hit = True
        out.append(rec)
    if not hit:
        out.append(IdentityRecord(
            suite="selftest", ident="injected-target-missing",
            claim=f"injected identity {target!r} exists in the report",
            status="fail", witness="no such identity"))
    return out
