import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stueckelberg
from exact_helpers import matrix_from_json
from stueckelberg import cli, modes, report, suites
from stueckelberg.cli import main
from stueckelberg.epsilon import SPACES, BasisIndex, epsilon
from stueckelberg.fock import normalized_gram
from stueckelberg.projectors import FourMomentum, ProjectorFamily
from stueckelberg.report import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, SuiteConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment of a CLI process: this package, and no STUECKELBERG_ setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STUECKELBERG_")}
    env["PYTHONPATH"] = str(Path(stueckelberg.__file__).resolve().parents[1])
    return env


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "em", "--json", "--no-timing")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == doc["summary"]["passed"]
    assert all("elapsed_ms" not in rec for rec in doc["identities"])
    # with no flag and no file, every setting is SuiteConfig's own default
    assert doc["config"] == SuiteConfig(suites=("em",)).describe()


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "em", "--no-timing")
    assert code == EXIT_PASS
    assert out.startswith("PASS")
    assert "total" in out.splitlines()[-1]


def test_rest_frame_reports_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "projectors", "--momentum", "0,0,0",
                           "--json", "--no-timing")
    assert code == EXIT_PASS
    doc = json.loads(out)
    skipped = [r for r in doc["identities"] if r["status"] == "skip"]
    assert skipped and all("rest-frame" in r["reason"] for r in skipped)


def test_irrational_momentum_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "projectors", "--mass", "1",
                           "--momentum", "1,1,0")
    assert code == EXIT_CONFIG
    assert "irrational" in err


def test_bad_truncation_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "fock", "--truncation", "1")
    assert code == EXIT_CONFIG
    assert "truncation" in err


def test_dump_epsilon(capsys):
    code, out, _ = run_cli(capsys, "dump", "epsilon", "--space", "dim4",
                           "--a", "1", "--b", "2")
    assert code == EXIT_PASS
    m = matrix_from_json(json.loads(out))
    assert m.rows == 4
    assert str(m[0, 1]) == "1"
    assert sum(1 for i in range(4) for j in range(4) if m[i, j]) == 1


def test_dump_epsilon_bad_label(capsys):
    code, _, err = run_cli(capsys, "dump", "epsilon", "--space", "dim11",
                           "--a", "7", "--b", "0")
    assert code == EXIT_CONFIG
    assert "parse" in err or "label" in err


def test_dump_wave_matrices_filtered(capsys):
    code, out, _ = run_cli(capsys, "dump", "wave-matrices", "--which", "eta")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert set(doc) == {"eta"}
    eta = matrix_from_json(doc["eta"])
    assert eta.rows == 11
    assert str(eta[0, 0]) == "-1"


def test_dump_solutions(capsys):
    code, out, _ = run_cli(capsys, "dump", "solutions", "--mass", "4",
                           "--momentum", "0,0,3", "--energy-sign", "+1",
                           "--spin", "1", "--projection", "+1")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert set(doc) == {"psi", "psi_bar", "norm_sign"}
    assert doc["norm_sign"] == 1
    assert len(doc["psi"]) == 11 and len(doc["psi_bar"]) == 11
    assert all(len(pair) == 2 and "/" in pair[0] for pair in doc["psi"])


def test_dump_solutions_rest_frame_error(capsys):
    code, _, err = run_cli(capsys, "dump", "solutions", "--mass", "4",
                           "--momentum", "0,0,0")
    assert code == EXIT_CONFIG
    assert "rest-frame" in err


def test_dump_gram(capsys):
    code, out, _ = run_cli(capsys, "dump", "gram", "--truncation", "2")
    assert code == EXIT_PASS
    g = matrix_from_json(json.loads(out))
    assert g.rows == 15
    diag = {str(g[i, i]) for i in range(g.rows)}
    assert diag == {"1", "-1"}


def test_stokes_command(capsys):
    code, out, _ = run_cli(capsys, "stokes", "--state", '[[1,0,"1","0"]]')
    assert code == EXIT_PASS
    assert out.splitlines() == ["J0 = 1/2", "J1 = 0/1", "J2 = 0/1", "J3 = 1/2"]
    code, out, _ = run_cli(capsys, "stokes", "--state", '[[0,1,"1","0"]]', "--json")
    assert json.loads(out)["J3"] == "-1/2"


def test_stokes_adds_repeated_occupations(capsys):
    # the state 2|1,0> + |0,1>, its first term given twice
    code, out, _ = run_cli(capsys, "stokes", "--state",
                           '[[1,0,"1","0"],[0,1,"1","0"],[1,0,"1","0"]]', "--json")
    assert code == EXIT_PASS
    assert (json.loads(out)["J1"], json.loads(out)["J3"]) == ("2/5", "3/10")
    code, out, err = run_cli(capsys, "stokes", "--state", '[[1,0,"1","0"],[1,0,"-1","0"]]')
    assert (code, out, err) == (EXIT_CONFIG, "", "configuration error: zero-norm state\n")


def test_stokes_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "stokes", "--state", "not json")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ("dump", "gram", "--truncation", "abc"),
    ("dump", "solutions", "--mass", "4", "--momentum", "0,0,3", "--spin", "x"),
    ("stokes", "--state", '[[1,0,"0.5","0"]]'),
    ("stokes", "--state", '[[1,0,"1/0","0"]]'),
    ("stokes", "--state", '[[1,0,"1","x"]]'),
    ("stokes", "--state", '[[1.5,0,"1","0"]]'),
    ("stokes", "--state", '[[1000000,0,"1","0"]]'),
    ("verify", "projectors", "--mass", "1", "--momentum", "1,1,1"),
])
def test_bad_input_is_one_line_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("truncation", ["2", "3"])
def test_fock_suite_at_low_truncation(capsys, truncation):
    code, out, _ = run_cli(capsys, "verify", "fock", "--truncation", truncation,
                           "--json", "--no-timing")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert any(r["id"] == "physical-decomposition" and r["status"] == "pass"
               for r in doc["identities"])


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("k0 = 7\ntruncation = 4\nscheme = 2\n")
    code, out, _ = run_cli(capsys, "verify", "fock", "--json", "--no-timing",
                           "--config", str(cfg))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["config"]["k0"] == "7/1"
    assert doc["config"]["truncation"] == 4
    assert doc["config"]["scheme"] == "2"
    # flags beat the file
    code, out, _ = run_cli(capsys, "verify", "fock", "--json", "--no-timing",
                           "--config", str(cfg), "--k0", "3")
    assert json.loads(out)["config"]["k0"] == "3/1"


def test_config_file_suite_selection(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suites = em,u31\n")
    code, out, _ = run_cli(capsys, "verify", "all", "--json", "--no-timing",
                           "--config", str(cfg))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert set(doc["config"]["suites"]) == {"em", "u31"}


def test_unknown_suite_in_config_file(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suites = bogus\n")
    code, _, err = run_cli(capsys, "verify", "all", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "unknown suite" in err


@pytest.mark.parametrize("argv,text,message", [
    # a misspelt key is not dropped in silence
    (("verify", "em"), "mas = 7\n",
     "unknown config key 'mas'; choose from " + ", ".join(cli.CONFIG_KEYS)),
    # an empty suite list is not a run of nothing with exit 0
    (("verify", "all"), "suites =\n", "no suite to run"),
    (("verify", "em"), b"k0 = \xff\n", None),
    # a repeated key is not settled by its last line
    (("verify", "em"), "k0 = 7\nk0 = 3\n", "config key 'k0' given twice"),
    # a setting that is not an integer is named, as a flag or in the file
    (("verify", "fock", "--truncation", "x"), "", "truncation must be an integer, got 'x'"),
    (("verify", "fock"), "truncation = 6.5\n", "truncation must be an integer, got '6.5'"),
    (("verify", "em", "--workers", "two"), "", "workers must be an integer, got 'two'"),
    (("verify", "em"), "workers = x\n", "workers must be an integer, got 'x'"),
    (("verify", "em"), "workers = 0\n", "worker count must be at least 1"),
], ids=["unknown-key", "empty-suites", "not-utf8", "repeated-key", "truncation-flag",
        "truncation-file", "workers-flag", "workers-file", "zero-workers"])
def test_bad_config_file_is_one_line_config_error(capsys, tmp_path, argv, text, message):
    cfg = tmp_path / "suite.cfg"
    (cfg.write_bytes if isinstance(text, bytes) else cfg.write_text)(text)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out, err.count("\n")) == (EXIT_CONFIG, "", 1)
    assert err.startswith("configuration error: ")
    assert message is None or err == f"configuration error: {message}\n"


def test_injected_failure_flips_exit(capsys, monkeypatch):
    monkeypatch.setenv("STUECKELBERG_INJECT_FAIL", "eta-hermitian")
    code, out, _ = run_cli(capsys, "verify", "algebra", "--json", "--no-timing")
    assert code == EXIT_FAIL
    doc = json.loads(out)
    failed = [r for r in doc["identities"] if r["status"] == "fail"]
    assert len(failed) == 1 and failed[0]["id"] == "eta-hermitian"
    assert "injected" in failed[0]["witness"]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "verify", "em", "--json", "--no-timing"])
    assert code == EXIT_PASS
    doc = json.loads(target.read_text())
    assert doc["summary"]["failed"] == 0


def test_worker_dispatch_matches_serial(capsys):
    code, serial, _ = run_cli(capsys, "verify", "em", "--json", "--no-timing",
                              "--workers", "1")
    code2, parallel, _ = run_cli(capsys, "verify", "em", "--json", "--no-timing",
                                 "--workers", "2")
    assert code == code2 == EXIT_PASS
    assert serial == parallel


@pytest.mark.parametrize("truncation", range(2, 13))
def test_parallel_fock_report_matches_one_process(capsys, three_cpus, truncation):
    argv = ("verify", "fock", f"--truncation={truncation}", "--json", "--no-timing")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--workers", "1")


@pytest.mark.parametrize("death", ["killed", "exit-0"])
def test_a_worker_that_dies_before_replying_changes_no_byte(capsys, monkeypatch, three_cpus,
                                                            death):
    argv = ("verify", "all", "--json", "--no-timing")
    want = run_cli(capsys, *argv, "--workers", "1")
    parent = os.getpid()
    for name, runner in list(report.SUITE_RUNNERS.items()):
        def dying(cfg, take=None, runner=runner, **kwargs):
            records = runner(cfg, take=take, **kwargs)
            if records and os.getpid() != parent:
                # a worker dies with checked records it never sends
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return records
        monkeypatch.setitem(report.SUITE_RUNNERS, name, dying)
    assert run_cli(capsys, *argv) == want
    assert want[0] == EXIT_PASS


@pytest.mark.parametrize("cpus", [1, 2, 100000])
def test_worker_count_is_capped_at_the_identities_and_cpus(capsys, monkeypatch, cpus):
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(report, "usable_cpus", lambda: cpus)
    code, out, _ = run_cli(capsys, "verify", "em", "--json", "--no-timing",
                           "--workers", "100000")
    assert code == EXIT_PASS
    assert len(forks) == min(len(json.loads(out)["identities"]), cpus) - 1


# (suite, owner and name of a builder, the suite's identities that read no object it builds)
REFUSED_BUILDS = [
    ("projectors", ProjectorFamily, "build", {"momentum-shell"}),
    ("u31", modes, "basis_directions", {"canonical-brackets", "hamiltonian-two-forms",
                                        "charges-conserved", "unit-charge-counts-quanta"}),
    ("em", suites, "_sample_u2_elements", {
        "su2-commutators", "rotations-commute-number", "charges-conserved",
        "hamiltonian-is-number", "stokes-one-photon", "stokes-vacuum", "dual-rotation-matrix",
        "dual-group-law", "dual-stokes-rotation", "dual-subgroup"}),
]


@pytest.mark.parametrize("suite, owner, builder, unread", REFUSED_BUILDS,
                         ids=[row[0] for row in REFUSED_BUILDS])
def test_a_shared_object_whose_build_raises_fails_each_identity_that_needs_it(
        capsys, monkeypatch, three_cpus, suite, owner, builder, unread):
    def refused(*args):
        raise ArithmeticError("build refused")
    built = getattr(owner, builder)
    for module in (owner, suites):  # the builder under each name the suites call it by
        if getattr(module, builder, None) is built:
            monkeypatch.setattr(module, builder, refused)
    # the structure constants are built once per process, from the directions
    modes.structure_constants.cache_clear()
    modes._generator_basis.cache_clear()
    argv = ("verify", suite, "--json", "--no-timing")
    forked = run_cli(capsys, *argv)
    assert forked == run_cli(capsys, *argv, "--workers", "1")
    code, out, err = forked
    assert code == EXIT_FAIL and err == ""
    witnesses = {r["id"]: r.get("witness") for r in json.loads(out)["identities"]}
    assert {i for i, w in witnesses.items() if w is None} == unread
    assert {w for i, w in witnesses.items() if i not in unread} == {
        "ArithmeticError: build refused"}


def test_run_leaves_no_child_process(three_cpus):
    rep = report.run(SuiteConfig(suites=("u31", "em"), workers=3))
    assert rep.exit_code == EXIT_PASS
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ("verify", "em", "--json", "--no-timing"),  # fails at the last flush
    ("dump", "gram", "--truncation", "6"),  # fails while it writes
], ids=["verify", "dump"])
def test_closed_stdout_is_one_stderr_line(argv):
    rd, wr = os.pipe()
    os.close(rd)
    try:
        proc = subprocess.run([sys.executable, "-m", "stueckelberg.cli", *argv], stdout=wr,
                              stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60)
    finally:
        os.close(wr)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("stueckelberg: cannot write output: ")
    assert proc.stderr.count("\n") == 1


# Imports a CLI process needs for none of its commands: a process pool
# would pull in multiprocessing, logging, socket and subprocess (a parallel
# `verify` forks instead), and dataclasses pulls in inspect, ast and dis.
COLD_START_UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing")
PACKAGE_MODULES = ("exact", "epsilon", "wave", "projectors", "modes", "fock", "em",
                   "suites", "report", "cli")
COLD_START_PROBE = """
import json, sys
before = set(sys.modules)
from stueckelberg import cli
package = sorted(m for m in sys.modules if m.startswith("stueckelberg."))
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps({"package": package, "loaded": sorted(set(sys.modules) - before)}),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("verify", "projectors", "--json", "--no-timing", "--workers", "1"),
    ("verify", "all", "--json", "--no-timing", "--workers", "2"),
], ids=["help", "verify-projectors", "verify-all-parallel"])
def test_cli_process_imports_only_what_it_runs(argv):
    proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE, *argv],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr.splitlines()[-1])
    # perfbench/tracer.py imports stueckelberg.cli and then reads all ten
    # modules from sys.modules, so the package import stays eager
    assert seen["package"] == sorted(f"stueckelberg.{m}" for m in PACKAGE_MODULES)
    assert [m for m in seen["loaded"]
            if any(m == u or m.startswith(u + ".") for u in COLD_START_UNUSED)] == []


# The behaviour contract: the stdout sha256 of these `--json --no-timing`
# reports.  A change that alters a report byte must update its digest.
REPORT_DIGESTS = [
    (("verify", "all"),
     "19f61e96f5ba37196f07afc4b3ad9d86c67b4d4fee0f308fb44415c95e1edadc"),
    (("verify", "projectors", "--mass", "4", "--momentum", "0,0,3"),
     "429ef80e48366142f64f823c831bd456828bb1533a94a7f00655357fff3acb7b"),
    (("verify", "projectors", "--mass", "12", "--momentum", "3,4,0"),
     "2fb6e78295fee74751feae04a303b6597137023035b301488c6305812d81bf44"),
    (("verify", "projectors", "--mass", "24", "--momentum", "2,3,6"),
     "3a6e62cbe48c08744d00e090164c3ce95c1b97c1eea52267525de6770b9a1aea"),
    # the benchmark sweep's three generated momenta at seed 1
    (("verify", "projectors", "--mass", "24", "--momentum", "2,6,3"),
     "81a59228c7ec34315b01afae2181d69af22e48c97ad47705993f699b13f36fad"),
    (("verify", "projectors", "--mass=125/7", "--momentum=-180/7,192/7,144/7"),
     "6af181f7a587aa044663c0abae8c209314f53ee670aba417aab3d68936d52f5f"),
    (("verify", "projectors", "--mass=58125", "--momentum=3640,11648,-3136"),
     "06d145918903c000673ca96255f6facd02a9646fcf96b7004d50c6a8f85a7631"),
    # a momentum whose dyad norms hold the 23-bit prime p0 = 8410001 squared:
    # trial division up to its square root took 4-8 s
    (("verify", "projectors", "--mass=8409999", "--momentum=576,5720,-768"),
     "a72e372cb1c511608980e08d9cd74a5a027a3ef057d40aab186f4d4adc431055"),
    (("verify", "projectors", "--momentum", "0,0,0"),
     "8faaf51e5aeb3293e42ecec1cb544d21402d42c4956657ad439419ffe25233b3"),
    (("verify", "fock", "--scheme", "1"),
     "58bf80086e030d7429837a39e4f5a27a64e2d6702ed0d337af7b6ba96118a741"),
    (("verify", "fock", "--scheme", "2"),
     "f9249858f9782cd3d21226d1711b6279f8a539278a7baf58b00df219271f1d04"),
    (("verify", "u31", "--k0", "37/11"),
     "59116f28c4a626b0512e585c26cb42082fde3ae93a82eb254f79de2f4e51c789"),
    # the configuration the mutation gate runs
    (("verify", "all", "--k0", "37/11"),
     "3d2a391e42c8d1450a746a9ca6dec63f9b51093cf0da71118a701216b1ce2da8"),
    # the em suite caps its states at truncation 4; below it they shrink
    (("verify", "em", "--truncation", "2"),
     "d1ffc2523022435ea0e01d5af97df9fdfd9fc20e3674243a9b81c7145292c3b0"),
    # below truncation 4 the canonical-pair samples have a lower top degree;
    # 10 is the truncation the fock benchmark runs
    (("verify", "fock", "--scheme", "both", "--truncation", "2"),
     "ef0a041e47466e0b52e0efd85b865f627fb63b655b4978bdc2cd2ca0bcde198f"),
    (("verify", "fock", "--scheme", "both", "--truncation", "3"),
     "dedf9fae79527be2a03928b1a667f485e5212430c860e22975404c20ea190dd3"),
    (("verify", "fock", "--scheme", "both", "--truncation", "4"),
     "aa3960d754c031a5f0bd6dcb769b5e81a628987ec2d51685c6a66c2ab0ce46b6"),
    (("verify", "fock", "--scheme", "both", "--truncation", "10"),
     "7c8599be8b988691720c72b12581ea2d5566079a98ee2a46bf87a0a598232e74"),
]


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in REPORT_DIGESTS])
def test_json_report_bytes_are_unchanged(capsys, three_cpus, argv, digest):
    for workers in ((), ("--workers", "1")):  # the default spreads over the CPUs
        code, out, _ = run_cli(capsys, *argv, "--json", "--no-timing", *workers)
        assert code == EXIT_PASS
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# The `dump` and `stokes` side of the contract: these digests do not come
# from the writers that `test_matrix_json_matches_the_json_module`
# compares, so a fault in the matrix store that both writers share still
# changes them.
STOKES_STATE = '[[1,0,"1","0"],[0,1,"1","1"]]'  # J = 1/2, 1/3, 1/3, -1/6
DUMP_DIGESTS = [
    (("stokes", "--state", STOKES_STATE),
     "dfe199d84caa8bd6bc5252d7176b77827d30502de6c12a59fa1832098d560efd"),
    (("stokes", "--state", STOKES_STATE, "--json"),
     "92a9a0c2d32f9c591f908ee2f0bc48ba8e264fd2542a941dc67d4ceaaeb5bcb3"),
    (("dump", "gram", "--truncation", "4", "--scheme", "1"),
     "be275f3d3f7bc4aacd412298c46093929a30f3b92f57af8f50e82c27d301c311"),
    (("dump", "gram", "--truncation", "4", "--scheme", "2"),
     "e6f255dba38f1503fdbcf006afd8b09e08014fb80a7b12a34e4926cc24264904"),
    (("dump", "epsilon", "--space", "dim11", "--a", "1", "--b", "[12]"),
     "eac9dacb5b1bf52689866b8e2818c3e6856778203a5c207b583477f089971413"),
    (("dump", "wave-matrices"),
     "8481aabc36a2d4390aca3b5475c080f61823b3899e82d88711bf4b74f3a29c8c"),
    (("dump", "solutions", "--mass", "24", "--momentum", "2,3,6", "--spin", "0",
      "--projection", "0"),
     "cda04420824ed636cc96145f84d625e5330703c5a724e79d87298636d97b897c"),
] + [
    # all eight (energy sign, spin, projection) states at one fractional momentum
    (("dump", "solutions", "--mass", "125/7", "--momentum=-180/7,192/7,144/7",
      f"--energy-sign={eps}", "--spin", spin, f"--projection={proj}"), digest)
    for eps, spin, proj, digest in (
        ("+1", "1", "+1", "e70e7bc5a507853260017e0f260f68d4658ba57aa2bbd22ca6331cdd517846bd"),
        ("+1", "1", "-1", "d9198d63e775315ea8aa74d48a073052039ad30583788a0fe94e628d8042fa05"),
        ("+1", "1", "0", "d12a186c7b94079f3c9a25e6d86ca447a20914717899a81f842717f9d4e3e9a8"),
        ("+1", "0", "0", "fb54407e999c76520942d6f1478bad03139974da6e5edb0d0f2092938c358fbc"),
        ("-1", "1", "+1", "dc29542bf50482b9ff0eafd17ea33125294d8c02a79481f8107386ed7d9dc46d"),
        ("-1", "1", "-1", "b2a080d8e3f713de8909077c25aea0afcc76b60dd5940bf32b318350cd533fab"),
        ("-1", "1", "0", "ff073aa75075f0e2cd5a1e330b9aad5a70fd27a1a21418be6ea3bbaeed51e469"),
        ("-1", "0", "0", "2d69fe75592c412b372594373d55dba47f1d1d1ff87920b6bf1bc65ac493a57c"))
]


@pytest.mark.parametrize("argv,digest", DUMP_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DUMP_DIGESTS])
def test_dump_bytes_are_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("verify", "fock", "--truncation", str(report.MAX_TRUNCATION + 1)),
    ("verify", "all", "--truncation", "1000000"),
    ("dump", "gram", "--truncation", str(cli.MAX_GRAM_TRUNCATION + 1)),
])
def test_truncation_above_the_cap_is_config_error(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("an over-cap truncation started a computation")
    for name in report.SUITE_RUNNERS:
        monkeypatch.setitem(report.SUITE_RUNNERS, name, never)
    monkeypatch.setattr(report, "prepared", never)
    monkeypatch.setattr(cli, "normalized_gram", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("configuration error: truncation above the cap")
    assert err.count("\n") == 1


# (3, 4, 5) times 2^cap: p0 = 5 * 2^cap is 3 bits over the cap
OVER_CAP = (f"--mass={3 << report.MAX_MOMENTUM_BITS}",
            f"--momentum=0,0,{4 << report.MAX_MOMENTUM_BITS}")


@pytest.mark.parametrize("argv", [
    ("verify", "projectors", *OVER_CAP),
    ("verify", "all", *OVER_CAP),
    ("dump", "solutions", *OVER_CAP, "--spin", "1", "--projection", "1"),
], ids=["verify-projectors", "verify-all", "dump-solutions"])
def test_momentum_above_the_cap_is_config_error(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("an over-cap momentum started a computation")
    for name in report.SUITE_RUNNERS:
        monkeypatch.setitem(report.SUITE_RUNNERS, name, never)
    monkeypatch.setattr(report, "prepared", never)
    monkeypatch.setattr(cli, "pure_state_projector", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("configuration error: momentum above the cap")
    assert err.count("\n") == 1


def _generic_momentum(a, b, c, d, u, v):
    """(m, p) = ((u^2 - v^2) D, 2uv (a^2 + b^2 - c^2 - d^2, 2(ad + bc), 2(bd - ac))).

    D = a^2 + b^2 + c^2 + d^2, so |p| = 2uv D and p0 = (u^2 + v^2) D.
    """
    big_d, y = a * a + b * b + c * c + d * d, 2 * u * v
    return (u * u - v * v) * big_d, (y * (a * a + b * b - c * c - d * d),
                                     y * 2 * (a * d + b * c), y * 2 * (b * d - a * c))


def test_large_momentum_below_the_cap_passes_in_bounded_time(capsys):
    # a generic momentum within 16 bits of the cap
    mass, p = _generic_momentum(3 ** 484, 5 ** 330, 7 ** 273, 11 ** 221, 13 ** 207, 17 ** 187)
    bits = FourMomentum.from_mass_and_momentum(mass, p).bit_length()
    assert report.MAX_MOMENTUM_BITS - 16 < bits <= report.MAX_MOMENTUM_BITS
    argv = ("verify", "projectors", f"--mass={mass}", "--momentum=" + ",".join(map(str, p)))
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv, "--json", "--no-timing", "--workers", "1")
    elapsed = time.perf_counter() - t0
    assert code == EXIT_PASS and json.loads(out)["summary"]["passed"] == 25
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_matrix_json_matches_the_json_module():
    p = FourMomentum.from_mass_and_momentum(24, (2, 3, 6))
    projector = ProjectorFamily.build(p).deltas[(1, 1, 1)]
    entries = [projector[i, j] for i in range(11) for j in range(11)]
    assert any(e.re.denominator > 1 for e in entries) and any(e.im for e in entries)
    mats = [normalized_gram(n, scheme)[1] for n in range(5) for scheme in (1, 2)]
    mats += [epsilon(BasisIndex.parse("[12]"), BasisIndex.parse("3"), SPACES["dim11"]),
             projector]
    for m in mats:
        assert "".join(cli._matrix_json(m)) == json.dumps(m.to_json_dict(), indent=2) + "\n"


# -- CLI fuzz: any argv exits 0, 1 or 2, never with a traceback ---------------

def _either(valid, malformed):
    """One draw in four from the malformed values."""
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(malformed if k == 3 else valid))


RATIONALS = _either(("4", "12", "24", "125/7", "37/11", "1"),
                    ("0", "-3", "abc", "1/0", "1.5", "", " ", "1e400"))
# on-shell pairs with a rational |p| and energy, and pairs that are not
MASS_MOMENTUM = _either(
    (("4", "0,0,3"), ("12", "3,4,0"), ("24", "2,3,6"), ("125/7", "-180/7,192/7,144/7"),
     ("3", "0,0,0")),
    (("1", "1,1,1"), ("4", "1,2"), ("4", "a,b,c"), ("4", "1/0,0,0"), ("4", "0,0,3,4"),
     ("4", ""), ("0", "0,0,3"), ("-3", "0,0,3"), ("abc", "0,0,3"), ("1", "0,0,1"),
     tuple(a.split("=")[1] for a in OVER_CAP)))
TRUNCATIONS = _either(tuple(str(n) for n in range(2, 9)), ("0", "1", "-4", "x", "2.5", ""))
LABELS = _either(("0", "1", "2", "3", "4", "[12]", "[34]"), ("5", "[11]", "[1]", "x", ""))
# config-file lines, one in four with a malformed or unknown key
CONFIG_LINES = _either(("k0 = 37/11", "truncation = 4", "scheme = 2", "mass = 12",
                        "momentum = 3,4,0", "suites = em,u31", "workers = 1", "# comment", ""),
                       ("mas = 7", "suites =", "k0", "truncation = x", "suites = bogus",
                        "colour = red"))
STATE_TERM = st.tuples(_either((0, 1, 2, 3), (-1, "1", "x", 1.5)), st.sampled_from((0, 1, 2)),
                       _either(("1", "-1", "0", "1/3"), ("x", "1/0")),
                       _either(("0", "1", "2/5"), ("0.5",)))


def _options(draw, pairs):
    """A flag list: each (flag, values) pair drawn in or left out."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            value = draw(values)
            argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    return argv


FIRST_IDENTITY = {"projectors": "momentum-shell", "em": "su2-commutators",
                  "fock": "ladder-standard", "u31": "canonical-brackets"}


FUZZ_KINDS = ("verify", "epsilon", "wave", "solutions", "gram", "stokes")


@st.composite
def cli_argvs(draw):
    """(kind, argv, failure hook target or None, config-file text or None) for one CLI call."""
    kind = draw(st.sampled_from(FUZZ_KINDS))
    inject = config = None
    if kind == "verify":
        suite = draw(st.sampled_from(tuple(FIRST_IDENTITY) + ("all", "bogus")))
        argv = ["verify", suite]
        if draw(st.booleans()):
            mass, momentum = draw(MASS_MOMENTUM)
            argv += ["--mass", mass, f"--momentum={momentum}"]
        argv += _options(draw, [("--k0", RATIONALS), ("--truncation", TRUNCATIONS),
                                ("--scheme", _either(("1", "2", "both"), ("3",)))])
        argv += [f for f in ("--json", "--no-timing") if draw(st.booleans())]
        # one process, or the default: as many as there are usable CPUs
        argv += draw(st.sampled_from((["--workers", "1"], [])))
        # the failure hook forces one record to fail, or names no record
        inject = draw(st.sampled_from((None, FIRST_IDENTITY.get(suite), "no-such-id")))
        lines = draw(st.none() | st.lists(CONFIG_LINES, max_size=3))
        if lines and draw(st.booleans()):
            lines.append(lines[0])  # a repeated key, when the line has one
        config = None if lines is None else "\n".join(lines)
    elif kind == "epsilon":
        argv = ["dump", "epsilon", "--a", draw(LABELS), "--b", draw(LABELS)] + _options(
            draw, [("--space", st.sampled_from(("dim11", "dim10", "dim5", "dim4", "dim7")))])
    elif kind == "wave":
        argv = ["dump", "wave-matrices"] + _options(
            draw, [("--which", st.sampled_from(("alpha", "eta1", "lorentz", "gamma")))])
    elif kind == "solutions":
        mass, momentum = draw(MASS_MOMENTUM)
        argv = ["dump", "solutions", "--mass", mass, f"--momentum={momentum}"] + _options(
            draw, [("--energy-sign", st.sampled_from(("+1", "-1", "1", "0", "x"))),
                   ("--spin", st.sampled_from(("0", "1", "2", "x"))),
                   ("--projection", st.sampled_from(("1", "-1", "0", "+1", "2", "x")))])
    elif kind == "gram":
        # sizes inside the cap, or far enough above it to show the exit 2
        sizes = _either(("0", "1", "2", "3", "4"), ("11", "1000000", "-1", "x"))
        argv = ["dump", "gram"] + _options(
            draw, [("--truncation", sizes), ("--scheme", _either(("1", "2"), ("3", "x")))])
    else:
        terms = draw(st.lists(STATE_TERM, min_size=1, max_size=3))
        state = json.dumps([list(t) for t in terms])
        state = draw(_either((state,), ("[", "{}", "[]", "[[27,0,\"1\",\"0\"]]")))
        argv = ["stokes", "--state", state] + [f for f in ("--json",) if draw(st.booleans())]
    return kind, argv, inject, config


# The fewest of the fuzz's 100 examples that each kind of argv may get, so
# that a change to the strategy cannot starve a command unseen: about half
# of what each kind gets today (verify 39, stokes 25, epsilon 14, solutions
# 11, gram 6, wave 5).  Hypothesis draws no argv twice, and `dump
# wave-matrices` has only five.
FUZZ_KIND_MINIMUM = {"verify": 20, "stokes": 12, "epsilon": 7, "solutions": 5, "gram": 3,
                     "wave": 3}


def test_any_argv_exits_0_1_or_2_without_a_traceback():
    kinds = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cli_argvs())
    def exits_0_1_or_2(case):
        kinds[case[0]] += 1
        _exits_0_1_or_2(*case[1:])

    exits_0_1_or_2()
    assert {k: n for k, n in FUZZ_KIND_MINIMUM.items() if kinds[k] < n} == {}, kinds


def _exits_0_1_or_2(argv, inject, config):
    out, err = io.StringIO(), io.StringIO()
    tmp = tempfile.TemporaryDirectory()
    if config is not None:
        path = Path(tmp.name) / "suite.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    old = os.environ.pop(report.INJECT_ENV, None)
    if inject:
        os.environ[report.INJECT_ENV] = inject
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    finally:
        tmp.cleanup()
        os.environ.pop(report.INJECT_ENV, None)
        if old is not None:
            os.environ[report.INJECT_ENV] = old
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert out.getvalue() == ""
    elif argv[0] == "verify":
        text = out.getvalue()
        failed = (any(r["status"] == "fail" for r in json.loads(text)["identities"])
                  if "--json" in argv else "\nFAIL  " in "\n" + text)
        assert (code == EXIT_FAIL) == failed
    else:
        assert code == EXIT_PASS
