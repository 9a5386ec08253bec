"""Seeded workload generation for the stueckelberg CLI benchmark.

A workload is a list of operations.  An operation is the argument list
of one `stueckelberg` CLI process (without the interpreter and module
prefix).  Every argument is generated here from the seed; the program
under test receives nothing else.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# The three momenta the acceptance gate uses, as (mass, (p1, p2, p3)).
ACCEPTANCE_MOMENTA = (
    (Fraction(4), (Fraction(0), Fraction(0), Fraction(3))),
    (Fraction(12), (Fraction(3), Fraction(4), Fraction(0))),
    (Fraction(24), (Fraction(2), Fraction(3), Fraction(6))),
)

REPORT_FLAGS = ["--json", "--no-timing"]
VERIFY_ALL = ["verify", "all"] + REPORT_FLAGS
FOCK_TRUNCATION = 10
GRAM_TRUNCATION = 8
LARGE_BITS = 16


def _rational_sqrt(f: Fraction):
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def check_momentum(mass: Fraction, p):
    """Raise ValueError unless the momentum is usable.

    Usable means: positive mass, not at rest, rational |p|, and an
    exactly rational on-shell energy p0^2 = |p|^2 + m^2.
    """
    if mass <= 0:
        raise ValueError(f"mass {mass} is not positive")
    if not any(p):
        raise ValueError("momentum is in the rest frame")
    norm2 = sum(c * c for c in p)
    if _rational_sqrt(norm2) is None:
        raise ValueError(f"|p|^2 = {norm2} has no rational root")
    if _rational_sqrt(norm2 + mass * mass) is None:
        raise ValueError(f"p0^2 = {norm2 + mass * mass} has no rational root")


def _quadruple(rng, lo, hi):
    """Integers (a, b, c, d), all of a, b, c nonzero, with a^2 + b^2 + c^2 = d^2."""
    while True:
        m, n, p, q = (rng.randint(lo, hi) for _ in range(4))
        a = m * m + n * n - p * p - q * q
        b = 2 * (m * q + n * p)
        c = 2 * (n * q - m * p)
        if a and b and c:
            return a, b, c, m * m + n * n + p * p + q * q


def _triple(rng, lo, hi):
    """Integers (x, y) with x^2 + y^2 a perfect square, x, y > 0."""
    u = rng.randint(lo, hi)
    v = rng.randint(1, u - 1)
    x, y = u * u - v * v, 2 * u * v
    return (x, y) if rng.random() < 0.5 else (y, x)


def moving_momentum(rng, quad_range, triple_range, divisor=1):
    """A generic on-shell momentum with all three components nonzero.

    The spatial direction comes from a Pythagorean quadruple (a, b, c; d)
    and the mass/|p| pair from a Pythagorean triple (x, y): p = y (a, b, c),
    m = x d, so |p| = y d and p0 = d sqrt(x^2 + y^2).  Dividing by
    `divisor` gives non-integer rational components.
    """
    a, b, c, d = _quadruple(rng, *quad_range)
    x, y = _triple(rng, *triple_range)
    ints = (x * d, a * y, b * y, c * y)
    g = math.gcd(*ints)
    mass, p1, p2, p3 = (Fraction(v, g * divisor) for v in ints)
    return mass, (p1, p2, p3)


def _frac_arg(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def projectors_op(mass, p):
    return (["verify", "projectors", f"--mass={_frac_arg(mass)}",
             "--momentum=" + ",".join(_frac_arg(c) for c in p)] + REPORT_FLAGS)


def sweep_momenta(seed: int):
    """The three acceptance momenta plus three generated ones.

    The generated ones are: a small integer momentum, one with
    non-integer rational components, and one with an entry of at least
    LARGE_BITS bits.  Every component of each generated momentum is
    nonzero.
    """
    rng = random.Random(f"projectors-sweep:{seed}")
    momenta = list(ACCEPTANCE_MOMENTA)
    momenta.append(moving_momentum(rng, (1, 4), (2, 5)))
    while True:
        mass, p = moving_momentum(rng, (1, 4), (2, 5), divisor=rng.choice((3, 7, 11, 13)))
        if any(c.denominator != 1 for c in p):
            break
    momenta.append((mass, p))
    while True:
        mass, p = moving_momentum(rng, (4, 9), (20, 40))
        if max(abs(v.numerator) for v in (mass,) + p).bit_length() >= LARGE_BITS:
            break
    momenta.append((mass, p))
    for mass, p in momenta:
        check_momentum(mass, p)
    return momenta


def fock_k0(seed: int) -> Fraction:
    rng = random.Random(f"fock-deep:{seed}")
    return Fraction(rng.randint(1, 97), rng.randint(1, 31))


def operations(workload: str, seed: int):
    """The operations of one pass over `workload` at `seed`."""
    if workload == "verify-matrix":
        return ([list(VERIFY_ALL), VERIFY_ALL + ["--workers=2"]]
                + [projectors_op(m, p) for m, p in sweep_momenta(seed)])
    if workload == "fock-deep":
        return [["verify", "fock", f"--truncation={FOCK_TRUNCATION}", "--scheme=both",
                 f"--k0={_frac_arg(fock_k0(seed))}"] + REPORT_FLAGS,
                ["dump", "gram", f"--truncation={GRAM_TRUNCATION}", "--scheme=2"]]
    raise KeyError(workload)


WORKLOADS = ("verify-matrix", "fock-deep")
