"""Suite orchestration and machine-readable reporting.

The report is deterministic: identical configuration yields byte
identical JSON once timing is suppressed.  Exit codes: 0 all identities
pass (skips allowed for documented degenerate input), 1 any identity
fails, 2 configuration error.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .exact import as_fraction, fraction_str, rational_sqrt
from .suites import ALL_SUITES, SUITE_RUNNERS, IdentityRecord, prepared, scheduled

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# Largest accepted Fock truncation.  The fock suite's cost grows with the
# basis size C(N+4, 4): `verify fock --scheme both` in a fresh process on
# a 2-vCPU Xeon host takes 0.12 s at N = 10, 0.30 s (22 MB peak) at N = 20
# and 0.69 s (28-30 MB peak) at N = 26 over both CPUs, 1.30 s (30 MB) at
# N = 26 on one.
MAX_TRUNCATION = 26

# Largest numerator or denominator bit length of p0, |p| and m accepted
# when the projectors suite runs.  Its exact products grow as a power of
# the bit size: on the same host the worst of 50 generated momenta of
# 3065-3072 bits took 1.0 s in a fresh `verify all --workers 1`, 0.67 s
# over both CPUs.
MAX_MOMENTUM_BITS = 3072

INJECT_ENV = "STUECKELBERG_INJECT_FAIL"


class ConfigError(ValueError):
    """Invalid suite configuration; maps to exit code 2."""


class SuiteConfig(namedtuple("SuiteConfig", "suites mass momentum k0 truncation scheme "
                              "timing workers")):
    """One verification run's settings, each with its one default; `validate` checks them.

    workers None means one process per usable CPU, at most one per identity.
    """

    __slots__ = ()

    def __new__(cls, suites=ALL_SUITES, mass=Fraction(4),
                momentum=(Fraction(0), Fraction(0), Fraction(3)), k0=Fraction(5),
                truncation=6, scheme="both", timing=True, workers=None):
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
        if self.workers is not None and self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        if "projectors" in self.suites:
            check_momentum(self.mass, self.momentum)

    def describe(self):
        return {
            "suites": list(self.suites),
            "mass": fraction_str(self.mass),
            "momentum": [fraction_str(c) for c in self.momentum],
            "k0": fraction_str(self.k0),
            "truncation": self.truncation,
            "scheme": self.scheme,
        }


def check_momentum(mass, momentum):
    """Raise ConfigError unless p0 and |p| are rational and p0, |p| and m fit MAX_MOMENTUM_BITS.

    It reads the given numbers alone and builds no `FourMomentum`, so a
    fault there fails the identities that read it, not the configuration.
    """
    n2 = sum(c * c for c in momentum)
    sizes = [mass]
    for what, square in (("p0", n2 + mass * mass), ("|p|", n2)):
        root = rational_sqrt(square)
        if root is None:
            raise ConfigError(f"{what} = sqrt({square}) is irrational; "
                              "choose a Pythagorean momentum")
        sizes.append(root)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in sizes)
    if bits > MAX_MOMENTUM_BITS:
        raise ConfigError(f"momentum above the cap: p0, |p| and m may have at most "
                          f"{MAX_MOMENTUM_BITS}-bit numerators and denominators")


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


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(cfg: SuiteConfig) -> VerificationReport:
    """Validate the configuration, run the selected suites, assemble the report.

    The identities are spread over up to cfg.workers processes (by
    default one per usable CPU), never more than there are identities
    or usable CPUs; one process forks none.
    """
    cfg.validate()
    ordered = [s for s in ALL_SUITES if s in cfg.suites]
    total = sum(len(scheduled(s, cfg)) for s in ordered)
    procs = min(cfg.workers or total, total, usable_cpus()) if hasattr(os, "fork") else 1
    records = _dispatch(cfg, ordered, total, procs)
    inject = os.environ.get(INJECT_ENV)
    if inject:
        records = _inject_failure(records, inject)
    return VerificationReport(config=cfg, records=records)


# an identity's index in report order, as it travels through the dispatch pipe
TOKEN_BYTES = 4


class _Claims:
    """take(i) for one process: whether it checks the identity of report index i.

    Every index is in one shared pipe, once and in increasing order, and
    each process reads the next one only when it is free to check it.  A
    pipe read of one token is atomic, so every index goes to exactly one
    process, and a process that finishes early takes more.
    """

    def __init__(self, fd):
        self.fd = fd
        self.next = None  # the index read but not yet reached; -1 after the last

    def __call__(self, i):
        if self.next is None:
            token = os.read(self.fd, TOKEN_BYTES)
            self.next = int.from_bytes(token, "big") if token else -1
        if self.next != i:
            return False
        self.next = None
        return True


def _share(cfg, built, take):
    """(report index, record) of each identity that take claims, on built's suite objects."""
    out, base = [], 0
    for name in built:
        taken = []

        def claim(k, base=base, taken=taken):
            if take(base + k):
                taken.append(base + k)
                return True
            return False
        # by keyword: SUITE_RUNNERS entries may be wrapped by observers of (cfg)
        records = SUITE_RUNNERS[name](cfg, take=claim, suite=built[name])
        out += zip(taken, records)
        base += len(scheduled(name, cfg))
    return out


def _read_all(fd):
    return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))


def _dispatch(cfg, ordered, total, procs):
    """The records of every identity, checked by this process and procs - 1 forked children.

    Every suite's shared objects are built once, by `prepared`, before any
    fork.  Each child writes its (index, record fields) pairs into a pipe
    of its own with marshal, which takes only the str, float and None
    fields a record holds, and leaves through os._exit, whatever happens.
    An identity that no child returned, say from a killed one, is checked here.
    """
    built = {name: prepared(name, cfg) for name in ordered}
    tokens, feed = os.pipe()
    # 4 bytes per identity (80 today), far under PIPE_BUF: one write holds every token
    os.write(feed, b"".join(i.to_bytes(TOKEN_BYTES, "big") for i in range(total)))
    os.close(feed)
    sys.stdout.flush()
    sys.stderr.flush()
    take = _Claims(tokens)
    children = []
    try:
        for _ in range(procs - 1):
            rd, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: this one takes the rest
                os.close(rd)
                os.close(wr)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(rd)
                    pairs = [(i, tuple(rec)) for i, rec in _share(cfg, built, take)]
                    with os.fdopen(wr, "wb") as fh:
                        marshal.dump(pairs, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, rd))
        got = dict(_share(cfg, built, take))
        replies = [_read_all(rd) for _, rd in children]
    finally:
        os.close(tokens)
        for _, rd in children:
            os.close(rd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for status, reply in zip(statuses, replies):
        if status == 0 and reply:
            got.update((i, IdentityRecord(*fields)) for i, fields in marshal.loads(reply))
    missing = set(range(total)).difference(got)
    if missing:
        got.update(_share(cfg, built, missing.__contains__))
    return [got[i] for i in range(total)]


def _inject_failure(records, target):
    """Self-test hook: force one identity to fail to exercise the exit contract."""
    hit = {k for k, rec in enumerate(records) if target in (rec.ident, f"{rec.suite}/{rec.ident}")}
    out = [rec._replace(status="fail", witness="injected failure (self-test hook)", reason=None)
           if k in hit else rec for k, rec in enumerate(records)]
    if not hit:
        out.append(IdentityRecord(
            suite="selftest", ident="injected-target-missing",
            claim=f"injected identity {target!r} exists in the report",
            status="fail", witness="no such identity"))
    return out
