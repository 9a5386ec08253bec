"""Correctness gate for one benchmark operation.

An operation fails when its process exits nonzero, its stdout is not
JSON, any identity is not `pass`, a suite's identity-id list differs
from the recorded one, a `dump gram` result is not the +-1 diagonal of
side C(N+4, 4), or its stdout digest differs from the one recorded for
the same arguments.

Run `python3 perfbench/checks.py` from the repository root to record
`expected.json` from the current program: the identity-id list of every
suite and the stdout sha256 of every operation at the default seed.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SUITES = ("algebra", "projectors", "u31", "fock", "em")
DIAGONAL = (["1/1", "0/1"], ["-1/1", "0/1"])
ZERO = ["0/1", "0/1"]


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def digest_key(argv):
    """Digest lookup key: the worker count must not change the output."""
    return " ".join(a for a in argv if not a.startswith("--workers"))


def _flag(argv, name):
    for a in argv:
        if a.startswith(f"--{name}="):
            return a.split("=", 1)[1]
    raise ValueError(f"operation has no --{name}")


def _check_report(argv, doc, expected_ids):
    suites = SUITES if argv[1] == "all" else (argv[1],)
    got = {s: [] for s in suites}
    for rec in doc["identities"]:
        if rec["status"] != "pass":
            return f"{rec['suite']}/{rec['id']} is {rec['status']}"
        if rec["suite"] not in got:
            return f"unexpected suite {rec['suite']!r}"
        got[rec["suite"]].append(rec["id"])
    for s in suites:
        if got[s] != expected_ids[s]:
            return f"suite {s} identity list differs from the recorded one"
    return None


def _check_gram(argv, doc):
    side = comb(int(_flag(argv, "truncation")) + 4, 4)
    if doc.get("rows") != side or doc.get("cols") != side:
        return f"gram is not {side}x{side}"
    entries = doc["entries"]
    if len(entries) != side * side:
        return "gram entry count is wrong"
    for k, e in enumerate(entries):
        i, j = divmod(k, side)
        if (e not in DIAGONAL) if i == j else (e != ZERO):
            return f"gram entry ({i},{j}) = {e} is not a +-1 diagonal entry"
    return None


def check(argv, code, stdout: bytes, expected) -> str | None:
    """None when the operation's output is right, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        if argv[0] == "dump":
            reason = _check_gram(argv, doc)
        else:
            reason = _check_report(argv, doc, expected["ids"])
    except (AttributeError, KeyError, TypeError) as exc:
        reason = f"stdout JSON has an unexpected layout: {exc!r}"
    if reason:
        return reason
    want = expected["digests"].get(digest_key(argv))
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return "stdout sha256 differs from the recorded digest"
    return None


def _record():
    import run
    import workloads

    env = run.child_env()
    ids, digests = {}, {}
    for name in workloads.WORKLOADS:
        for argv in workloads.operations(name, run.DEFAULT_SEED):
            res = run.run_op(argv, env)
            if res.code != 0:
                raise SystemExit(f"{argv} exited {res.code}; nothing recorded")
            key = digest_key(argv)
            sha = hashlib.sha256(res.stdout).hexdigest()
            if digests.setdefault(key, sha) != sha:
                raise SystemExit(f"{argv} output depends on the worker count")
            if argv[:2] == ["verify", "all"] and not ids:
                for rec in json.loads(res.stdout)["identities"]:
                    ids.setdefault(rec["suite"], []).append(rec["id"])
    EXPECTED_PATH.write_text(json.dumps({"ids": ids, "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    _record()
