"""Command-line interface: verify suites, dump exact objects.

Flags override values from an optional key=value config file.  All
output is exact: matrices and vectors are emitted as num/den string
pairs, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from .exact import GaussianRational, as_fraction
from .epsilon import SPACES, BasisIndex
from .epsilon import epsilon as eps_unit
from .fock import normalized_gram
from .projectors import FourMomentum, dyad_factorize, pure_state_projector
from .report import (EXIT_CONFIG, MAX_TRUNCATION, WORKERS_ENV, ConfigError, SuiteConfig,
                     run, usable_cpus)
from .suites import ALL_SUITES
from .wave import wave_matrices
from . import em as em_mod


# Largest `dump gram` truncation.  The dump writes all B*B entries of
# the Gram matrix, B = C(N+4, 4), one row at a time: 38 MB of JSON at
# N = 10 in 0.14 s with a 16 MB peak on a 2-vCPU Xeon host, but the
# output grows as B*B, to about 125 MB at N = 12.
MAX_GRAM_TRUNCATION = 10

CONFIG_KEYS = ("mass", "momentum", "k0", "truncation", "scheme", "suites", "workers")


def _parse_fraction(text):
    try:
        return as_fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None


def _parse_momentum(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("momentum needs three comma-separated rationals")
    return tuple(_parse_fraction(p) for p in parts)


def _load_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line without '=': {line!r}")
                key, _, val = (part.strip() for part in line.partition("="))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"unknown config key {key!r}; "
                                      f"choose from {', '.join(CONFIG_KEYS)}")
                if key in values:
                    raise ConfigError(f"config key {key!r} given twice")
                values[key] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def _build_suite_config(args):
    file_vals = _load_config_file(args.config) if args.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in file_vals:
            return file_vals[key]
        return default

    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    if args.suite == "all" and "suites" in file_vals and args.config:
        suites = tuple(s.strip() for s in file_vals["suites"].split(",") if s.strip())
    workers = pick(args.workers, "workers", os.environ.get(WORKERS_ENV, usable_cpus()))
    try:
        workers = int(workers)
        truncation = int(pick(args.truncation, "truncation", 6))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return SuiteConfig(
        suites=suites,
        mass=_parse_fraction(str(pick(args.mass, "mass", "4"))),
        momentum=_parse_momentum(str(pick(args.momentum, "momentum", "0,0,3"))),
        k0=_parse_fraction(str(pick(args.k0, "k0", "5"))),
        truncation=truncation,
        scheme=str(pick(args.scheme, "scheme", "both")),
        timing=not args.no_timing,
        workers=workers,
    )


def _emit(text, args):
    """Write text, or an iterable of text chunks, to --output or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _entry_json(re, im):
    return f'    [\n      "{re}",\n      "{im}"\n    ],\n'


_ZERO_JSON = _entry_json("0/1", "0/1")


def _matrix_json(m):
    """`_json_dump(m.to_json_dict())`, the same bytes, as one chunk per nonzero entry.

    One row-major walk of the nonzero entries; each run of zero entries
    before one is written by repetition, so no whole-matrix list is built.
    """
    chunk = f'{{\n  "rows": {m.rows},\n  "cols": {m.cols},\n  "entries": [\n'
    pos = 0
    for (i, j), v in sorted(m.coeffs.items()):
        yield chunk
        k = i * m.cols + j
        chunk = _ZERO_JSON * (k - pos) + _entry_json(*v.as_strings())
        pos = k + 1
    chunk += _ZERO_JSON * (m.rows * m.cols - pos)
    # the last entry of the matrix takes no comma
    yield chunk[:-2] + "\n  ]\n}\n"


def cmd_verify(args):
    cfg = _build_suite_config(args)
    report = run(cfg)
    _emit(report.to_json() if args.json else report.to_text(), args)
    return report.exit_code


def cmd_dump_epsilon(args):
    space = SPACES.get(args.space)
    if space is None:
        raise ConfigError(f"unknown space {args.space!r}; choose from {', '.join(SPACES)}")
    try:
        a = BasisIndex.parse(args.a)
        b = BasisIndex.parse(args.b)
        m = eps_unit(a, b, space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit(_matrix_json(m), args)
    return 0


def cmd_dump_wave(args):
    w = wave_matrices()
    blocks = {
        "alpha": {str(nu): w.alpha[nu].to_json_dict() for nu in (1, 2, 3, 4)},
        "beta1": {str(nu): w.beta1[nu].to_json_dict() for nu in (1, 2, 3, 4)},
        "beta0": {str(nu): w.beta0[nu].to_json_dict() for nu in (1, 2, 3, 4)},
        "eta": w.eta.to_json_dict(),
        "eta1": w.eta1.to_json_dict(),
        "lorentz": {f"{mu}{nu}": j.to_json_dict() for (mu, nu), j in sorted(w.lorentz.items())},
    }
    if args.which:
        if args.which not in blocks:
            raise ConfigError(f"unknown matrix family {args.which!r}")
        blocks = {args.which: blocks[args.which]}
    _emit(_json_dump(blocks), args)
    return 0


def cmd_dump_solutions(args):
    eps = {"+1": 1, "1": 1, "-1": -1}.get(args.energy_sign)
    spin = _parse_int(args.spin, "spin")
    proj = _parse_int(args.projection, "projection")
    try:
        p = FourMomentum.from_mass_and_momentum(_parse_fraction(args.mass),
                                                _parse_momentum(args.momentum))
        # rejects a bad sign or pair, the rest frame and an irrational |p|
        delta = pure_state_projector(p, eps, spin, proj)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dyad = dyad_factorize(delta, labels=(eps, spin, proj))
    out = {
        "psi": [list(c.as_strings()) for c in dyad.psi],
        "psi_bar": [list(c.as_strings()) for c in dyad.psi_bar],
        "norm_sign": dyad.norm_sign,
    }
    _emit(_json_dump(out), args)
    return 0


def cmd_dump_gram(args):
    truncation = _parse_int(args.truncation, "truncation")
    scheme = _parse_int(args.scheme, "scheme")
    if scheme not in (1, 2):
        raise ConfigError("scheme must be 1 or 2")
    if truncation < 0:
        raise ConfigError("truncation must be nonnegative")
    if truncation > MAX_GRAM_TRUNCATION:
        raise ConfigError(f"truncation above the cap {MAX_GRAM_TRUNCATION}")
    _, gram = normalized_gram(truncation, scheme)
    _emit(_matrix_json(gram), args)
    return 0


def cmd_stokes(args):
    try:
        terms = json.loads(args.state)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"state is not valid JSON: {exc}") from None
    if not isinstance(terms, list) or not terms:
        raise ConfigError("state must be a nonempty JSON list of terms")
    coeffs = {}
    for term in terms:
        if not isinstance(term, list) or len(term) != 4:
            raise ConfigError("each term must be [n1, n2, re, im]")
        n1, n2, re, im = term
        occupation = (_parse_int(str(n1), "occupation"), _parse_int(str(n2), "occupation"))
        value = GaussianRational(_parse_fraction(str(re)), _parse_fraction(str(im)))
        coeffs[occupation] = coeffs.get(occupation, 0) + value  # repeated terms add up
    trunc = max(n1 + n2 for (n1, n2) in coeffs)
    if trunc > MAX_TRUNCATION:
        raise ConfigError(f"total occupation above the cap {MAX_TRUNCATION}")
    try:
        state = em_mod.polarization_state(coeffs, truncation=max(trunc, 2))
        values = em_mod.stokes_expectations(state)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    labels = ("J0", "J1", "J2", "J3")
    if args.json:
        out = {lbl: f"{v.numerator}/{v.denominator}" for lbl, v in zip(labels, values)}
        _emit(_json_dump(out), args)
    else:
        lines = [f"{lbl} = {v.numerator}/{v.denominator}" for lbl, v in zip(labels, values)]
        _emit("\n".join(lines) + "\n", args)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="stueckelberg",
        description="Exact verification of the multi-spin 0,1 vector-field algebra")
    ap.add_argument("--output", help="write output to a file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites and report pass/fail")
    v.add_argument("suite", choices=("all",) + ALL_SUITES)
    v.add_argument("--mass", help="rational mass (default 4)")
    v.add_argument("--momentum", help="three comma-separated rationals (default 0,0,3)")
    v.add_argument("--k0", help="rational mode energy (default 5)")
    v.add_argument("--truncation", help="Fock degree bound (default 6)")
    v.add_argument("--scheme", choices=("1", "2", "both"), help="vacuum scheme (default both)")
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.add_argument("--no-timing", action="store_true", help="suppress elapsed fields")
    v.add_argument("--config", help="key=value config file; flags take precedence")
    v.add_argument("--workers", help=f"processes that share the identities (or ${WORKERS_ENV}; "
                                     "default: the usable CPUs)")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("dump", help="emit exact objects as JSON")
    dsub = d.add_subparsers(dest="what", required=True)

    de = dsub.add_parser("epsilon", help="one basis matrix unit")
    de.add_argument("--space", default="dim11")
    de.add_argument("--a", required=True, help="row label: 0, 1..4, or [12]")
    de.add_argument("--b", required=True, help="column label")
    de.set_defaults(func=cmd_dump_epsilon)

    dw = dsub.add_parser("wave-matrices", help="the wave-equation matrix families")
    dw.add_argument("--which", choices=("alpha", "beta1", "beta0", "eta", "eta1", "lorentz"))
    dw.set_defaults(func=cmd_dump_wave)

    ds = dsub.add_parser("solutions", help="a normalized solution dyad")
    ds.add_argument("--mass", required=True)
    ds.add_argument("--momentum", required=True)
    ds.add_argument("--energy-sign", default="+1")
    ds.add_argument("--spin", default="1")
    ds.add_argument("--projection", default="+1")
    ds.set_defaults(func=cmd_dump_solutions)

    dg = dsub.add_parser("gram", help="Gram matrix of the normalized Fock basis")
    dg.add_argument("--truncation", default="4")
    dg.add_argument("--scheme", default="2")
    dg.set_defaults(func=cmd_dump_gram)

    st = sub.add_parser("stokes", help="polarization expectations of a two-mode state")
    st.add_argument("--state", required=True,
                    help='JSON list of terms [n1, n2, re, im], e.g. [[1,0,"1","0"]]')
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=cmd_stokes)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


# The collector's first generation runs every 50,000 net allocations, not
# 700: the checks allocate many short-lived exact scalars and few cycles.
GC_GEN0_THRESHOLD = 50_000


def _run_and_exit():
    """Run main(), flush the output and leave without interpreter teardown.

    The import image is moved out of the collector's sight first, so
    neither its passes nor the copy-on-write pages of forked workers
    touch it.  A write that fails, such as to a closed pipe, exits 2
    with one stderr line.
    """
    gc.freeze()
    gc.set_threshold(GC_GEN0_THRESHOLD, *gc.get_threshold()[1:])
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:
        code = EXIT_CONFIG
        with contextlib.suppress(OSError):
            print(f"stueckelberg: cannot write output: {exc}", file=sys.stderr)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code or 0)


if __name__ == "__main__":
    _run_and_exit()
