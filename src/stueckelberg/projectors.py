"""Momentum-space solution theory: energy and spin projectors, matrix dyads.

Everything here works at one exact four-momentum.  To keep the whole
pipeline rational the momentum must be Pythagorean: |p| and the energy
p0 both rational on the mass shell.  Spin-projection operators divide
by |p|, so they are undefined in the rest frame; the energy and squared
spin projectors are fine there.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from .exact import ExactMatrix, GR_I, GaussianRational, _lowest, as_fraction, rational_sqrt
from .epsilon import VECTOR_INDICES, levi_civita
from .wave import wave_matrices

SPIN_STATES = ((1, 1), (1, -1), (1, 0), (0, 0))  # (spin, projection)


class RestFrameError(ValueError):
    """Spin direction undefined at |p| = 0."""


class IrrationalMomentumError(ValueError):
    """|p| or p0 irrational; choose a Pythagorean momentum."""


class FourMomentum(namedtuple("FourMomentum", "p1 p2 p3 p0 m")):
    """On-shell momentum (p1, p2, p3; p0, m) with exact shell constraint."""

    __slots__ = ()

    def __new__(cls, p1, p2, p3, p0, m):
        p1, p2, p3, p0, m = (as_fraction(c) for c in (p1, p2, p3, p0, m))
        if m <= 0:
            raise ValueError("mass must be positive")
        if p0 <= 0:
            raise ValueError("energy must be positive")
        if p0 ** 2 != p1 ** 2 + p2 ** 2 + p3 ** 2 + m ** 2:
            raise ValueError("momentum is off the mass shell")
        return super().__new__(cls, p1, p2, p3, p0, m)

    @staticmethod
    def from_mass_and_momentum(m, p):
        m = as_fraction(m)
        p1, p2, p3 = (as_fraction(c) for c in p)
        e2 = p1 ** 2 + p2 ** 2 + p3 ** 2 + m ** 2
        p0 = rational_sqrt(e2)
        if p0 is None:
            raise IrrationalMomentumError(
                f"p0 = sqrt({e2}) is irrational; choose a Pythagorean momentum")
        return FourMomentum(p1, p2, p3, p0, m)

    @property
    def p_squared(self) -> Fraction:
        """Invariant p^2 = |p|^2 - p0^2, equal to -m^2 on shell."""
        return -self.m ** 2

    def spatial_norm(self) -> Fraction:
        """|p|, exact; raises if irrational."""
        n2 = self.p1 ** 2 + self.p2 ** 2 + self.p3 ** 2
        n = rational_sqrt(n2)
        if n is None:
            raise IrrationalMomentumError(
                f"|p| = sqrt({n2}) is irrational; choose a Pythagorean momentum")
        return n

    def is_at_rest(self) -> bool:
        return not (self.p1 or self.p2 or self.p3)

    def components(self):
        """The four covariant components (p1, p2, p3, i*p0)."""
        return (GaussianRational(self.p1), GaussianRational(self.p2),
                GaussianRational(self.p3), GaussianRational(0, self.p0))


def p_slash(p: FourMomentum) -> ExactMatrix:
    """Contraction of the wave matrices with the covariant momentum."""
    w = wave_matrices()
    comps = p.components()
    out = ExactMatrix.zeros(11)
    for mu in (1, 2, 3, 4):
        c = comps[mu - 1]
        if c:
            out = out + w.alpha[mu] * c
    return out


def spin_squared(p: FourMomentum) -> ExactMatrix:
    """Squared Pauli-Lubanski operator in the 11-dimensional representation.

    It is (p^2 sum J^2 - sum_sigma K_sigma K_sigma) / m^2, where
    K_sigma = sum_mu p_mu J_mu,sigma contracts the generators with the
    momentum, so the cross term takes four products.  The generator-square
    sum runs over unordered index pairs (the antisymmetric pair carries an
    implicit 1/2, as in the summed identity formulas).  Both conventions
    are pinned by equality with the explicit Levi-Civita form, which the
    test suite checks.
    """
    w = wave_matrices()
    comps = tuple(zip(VECTOR_INDICES, p.components()))
    zero = ExactMatrix.zeros(11)
    jj = sum((j @ j for j in w.lorentz.values()), zero)
    ks = [sum((w.lorentz_signed(mu, sig) * c for mu, c in comps if c and mu != sig), zero)
          for sig in VECTOR_INDICES]
    cross = sum((k @ k for k in ks), zero)
    return (jj * GaussianRational(p.p_squared) - cross) / GaussianRational(p.m * p.m)


def spin_projection_op(p: FourMomentum) -> ExactMatrix:
    """Spin projection on the momentum direction; needs |p| rational and nonzero."""
    w = wave_matrices()
    if p.is_at_rest():
        raise RestFrameError("rest-frame: spin direction undefined")
    norm = p.spatial_norm()
    comps = (p.p1, p.p2, p.p3)
    out = ExactMatrix.zeros(11)
    for a, b, c in permutations((1, 2, 3)):
        pa = comps[a - 1]
        if not pa:
            continue
        sign = levi_civita((a, b, c))
        coeff = GaussianRational(0, Fraction(-sign) * pa / (2 * norm))
        out = out + w.lorentz_signed(b, c) * coeff
    return out


class ProjectorFamily(namedtuple("ProjectorFamily", "momentum p_slash m_plus m_minus sigma2 "
                                  "sigma_p spin_sectors projections deltas")):
    """All projection operators for one momentum, each built once.

    The matrices are exact; spin_sectors is keyed by spin, projections
    by spin projection and deltas by (eps, spin, projection).  At rest
    sigma_p is None and projections and deltas are empty.

    Every projector is a polynomial in p_slash, sigma2 or sigma_p: the
    energy-sign eps projector is (i ps)(i ps - eps m) / 2m^2, the spin
    sectors are sigma2 / 2 (spin 1) and its complement (spin 0), and the
    projection-q projector is sigma_p (sigma_p + q) / 2 for q = +1, -1
    and 1 - sigma_p^2 for q = 0.
    """

    __slots__ = ()

    @staticmethod
    def build(p: FourMomentum) -> "ProjectorFamily":
        ident = ExactMatrix.identity(11)
        ps = p_slash(p)
        ips, m = ps * GR_I, GaussianRational(p.m)
        m_plus, m_minus = ((ips @ (ips - ident * (m * eps))) / (m * m * 2) for eps in (1, -1))
        sigma2 = spin_squared(p)
        half = sigma2 / GaussianRational(2)
        s2 = {0: ident - half, 1: half}
        sigma_p, sp, deltas = None, {}, {}
        if not p.is_at_rest():
            sigma_p = spin_projection_op(p)
            square = sigma_p @ sigma_p
            sp = {q: (square + sigma_p * q) / GaussianRational(2) if q
                  else ident - square for q in (-1, 0, 1)}
            for eps, m_eps in ((1, m_plus), (-1, m_minus)):
                m_s2 = {spin: m_eps @ s2[spin] for spin in s2}
                deltas.update(((eps, spin, q), m_s2[spin] @ sp[q]) for spin, q in SPIN_STATES)
        return ProjectorFamily(p, ps, m_plus, m_minus, sigma2, sigma_p, s2, sp, deltas)


def pure_state_projector(p: FourMomentum, eps: int, spin: int, proj: int) -> ExactMatrix:
    """Rank-1 density matrix for definite energy sign, spin, and projection."""
    if (spin, proj) not in SPIN_STATES:
        raise ValueError(f"invalid (spin, projection) pair ({spin}, {proj})")
    if eps not in (1, -1):
        raise ValueError("energy sign must be +1 or -1")
    if p.is_at_rest():
        raise RestFrameError("rest-frame: spin direction undefined")
    return ProjectorFamily.build(p).deltas[(eps, spin, proj)]


class SolutionDyad(namedtuple("SolutionDyad", "column row labels norm_sign")):
    """Rank-1 factorisation of a pure-state projector: an 11x1 column times a 1x11 row.

    The column psi is scaled so that its indefinite-metric norm
    psi^+ eta psi is exactly +1 or -1 (recorded as norm_sign); the row
    psi_bar is norm_sign times psi^+ eta, which makes the product
    column @ row reproduce the projector exactly.  Reassembly then
    forces psi_bar psi = +1, as it must for any trace-one idempotent;
    the indefinite sign lives in norm_sign.  labels is (eps, spin,
    projection).  column and row are `ExactMatrix`es; psi and psi_bar
    read them out as tuples of `GaussianRational`.

    psi's phase: psi is the projector's column j divided by a Gaussian
    rational t of the momentum, so psi_j = Delta_jj / t = +-conj(t).
    With n = |p|, t is p0 (1 + i) / 2m for spin 0, p0 p_k (1 + i) / 2mn
    or n (1 + i) / 2m for projection 0, and p0 (p_a + i p_b) / 2mn for
    projection +-1; `dyad_factorize` says which j goes with each.
    """

    __slots__ = ()

    @property
    def psi(self):
        return self.column.column(0)

    @property
    def psi_bar(self):
        return self.row.transpose().column(0)


def rank_one_factors(delta: ExactMatrix):
    """(column, row, j): column @ row is the nonzero delta exactly when delta has rank one.

    The column is delta's first column j of largest squared magnitude
    (the entries share one denominator, so their numerators rank the
    columns); the row is delta's row through that column's first nonzero
    entry, divided by the entry.
    """
    c, den = delta._c, delta._den
    norms = [0] * delta.cols
    for (_, j), (a, b) in c.items():
        norms[j] += a * a + b * b
    j = max(range(delta.cols), key=norms.__getitem__)
    i = min(r for r, k in c if k == j)
    column = ExactMatrix._of(delta.rows, 1, *_lowest({(r, 0): e for (r, k), e in c.items()
                                                      if k == j}, den))
    row = ExactMatrix._of(1, delta.cols, *_lowest({(0, k): e for (r, k), e in c.items()
                                                   if r == i}, den))
    return column, row / delta[i, j], j


def dyad_factorize(delta: ExactMatrix, p: FourMomentum, labels) -> SolutionDyad:
    """Split the pure-state projector of labels at p into a normalized 11x1 column and its row.

    The column j of `rank_one_factors` is psi times psi_bar_j, so its
    metric norm nu has |nu| = |psi_j|^2 = |Delta_jj|.  It is divided by
    a Gaussian rational t with |t|^2 = |Delta_jj|, read off the momentum
    (n = |p|; a < b are the axes other than k).  On the mass shell the
    largest |Delta_jj|, hence the largest column, is at

    - spin 0: j = 4, |Delta_jj| = p0^2 / 2m^2, t = p0 (1 + i) / 2m;
    - spin 1, projection 0: j = k, |Delta_jj| = p0^2 p_k^2 / 2m^2 n^2,
      t = p0 p_k (1 + i) / 2mn, or j = 4, |Delta_jj| = n^2 / 2m^2,
      t = n (1 + i) / 2m;
    - spin 1, projection +-1: j = [k4] for the smallest |p_k|,
      |Delta_jj| = p0^2 (p_a^2 + p_b^2) / 4m^2 n^2, t = p0 (p_a + i p_b) / 2mn.

    The reassembly check rejects a wrong t.
    """
    factors = None if delta.is_zero() else rank_one_factors(delta)
    # a nonzero delta has rank one exactly when its factors reassemble it
    if factors is None or factors[0] @ factors[1] != delta:
        raise ValueError("not a pure state: projector rank differs from 1")
    col, _, j = factors
    eta = wave_matrices().eta
    nu = (col.dagger() @ eta @ col)[0, 0]
    if not nu:
        raise ArithmeticError("candidate column has null metric norm")
    if nu.im:
        raise ArithmeticError("metric norm should be real")
    norm_sign = 1 if nu.re > 0 else -1
    _, spin, proj = labels
    n, pk = p.spatial_norm(), (p.p1, p.p2, p.p3)
    if proj:  # j is the slot [k4], at position 7, 9 or 10 for k = 1, 2, 3
        a, b = (x for k, x in enumerate(pk) if k != (7, 9, 10).index(j))
        t = GaussianRational(a, b) * (p.p0 / (2 * p.m * n))
    else:
        x = p.p0 if spin == 0 else n if j == 4 else p.p0 * pk[j - 1] / n
        t = GaussianRational(x, x) / (2 * p.m)
    col = col / t
    row = (col.dagger() @ eta) * norm_sign
    if col @ row != delta:
        raise AssertionError("dyad reassembly failed to reproduce the projector")
    return SolutionDyad(column=col, row=row, labels=tuple(labels), norm_sign=norm_sign)
