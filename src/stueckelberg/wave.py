"""First-order wave matrices: alpha family, beta families, eta, Lorentz generators.

The 11-dimensional alpha matrices split into a 10-dimensional spin-1
block and a 5-dimensional spin-0 block sharing the vector slots; the
builders construct each independently, and the identity
`algebra/alpha-block-split` checks the decomposition.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exact import ExactMatrix, GR_ONE, GaussianRational, assemble, block_at
from .epsilon import BIVECTOR_PAIRS, DIM5, DIM10, DIM11, VECTOR_INDICES, bivector_component


def build_beta1(nu: int) -> ExactMatrix:
    """10x10 spin-1 block on the (vector, bivector) view."""
    terms = []
    for mu in VECTOR_INDICES:
        lbl, sign = bivector_component(mu, nu)
        if lbl is None:
            continue
        v = DIM10.position(str(mu))
        b = DIM10.position(lbl)
        terms += [((v, b), sign), ((b, v), sign)]
    return ExactMatrix.sparse(10, 10, terms)


def build_beta0(nu: int) -> ExactMatrix:
    """5x5 spin-0 block on the (scalar, vector) view."""
    s = DIM5.position("0")
    v = DIM5.position(str(nu))
    return ExactMatrix.sparse(5, 5, [((v, s), GR_ONE), ((s, v), GR_ONE)])


def build_alpha(nu: int) -> ExactMatrix:
    """11x11 wave matrix built directly from its four basis-unit terms."""
    terms = []
    for mu in VECTOR_INDICES:
        lbl, sign = bivector_component(mu, nu)
        if lbl is None:
            continue
        v = DIM11.position(str(mu))
        b = DIM11.position(lbl)
        terms += [((v, b), sign), ((b, v), sign)]
    sc = DIM11.position("0")
    v = DIM11.position(str(nu))
    terms += [((v, sc), GR_ONE), ((sc, v), GR_ONE)]
    return ExactMatrix.sparse(11, 11, terms)


class WaveMatrices(namedtuple("WaveMatrices", "alpha beta1 beta0 eta eta1 lorentz")):
    """All wave matrices for the 11-component field, built once and shared.

    alpha, beta1 and beta0 are keyed by vector index, and lorentz by
    ordered pairs (mu, nu) with mu < nu.  The rotation generators and
    the Hermitianizing matrices come from the spin-1 block: J_mn is
    [beta1_m, beta1_n] with the scalar slot untouched, eta1 is
    2 beta1_4^2 - 1, and eta is -1 on the scalar slot and eta1 on the
    rest.
    """

    __slots__ = ()

    def lorentz_signed(self, mu, nu):
        """J for any index order; antisymmetric, zero when mu == nu."""
        if mu == nu:
            return ExactMatrix.zeros(11)
        if mu < nu:
            return self.lorentz[(mu, nu)]
        return -self.lorentz[(nu, mu)]


@lru_cache(maxsize=1)
def wave_matrices() -> WaveMatrices:
    alpha = {nu: build_alpha(nu) for nu in VECTOR_INDICES}
    beta1 = {nu: build_beta1(nu) for nu in VECTOR_INDICES}
    beta0 = {nu: build_beta0(nu) for nu in VECTOR_INDICES}
    lorentz = {(mu, nu): assemble(11, 11, ((beta1[mu] @ beta1[nu] - beta1[nu] @ beta1[mu],
                                            block_at(1, 1)),))
               for (mu, nu) in BIVECTOR_PAIRS}
    b4 = beta1[4]
    eta1 = (b4 @ b4) * GaussianRational(2) - ExactMatrix.identity(10)
    eta = (ExactMatrix.sparse(11, 11, [((0, 0), -GR_ONE)])
           + assemble(11, 11, ((eta1, block_at(1, 1)),)))
    return WaveMatrices(alpha=alpha, beta1=beta1, beta0=beta0, eta=eta, eta1=eta1,
                        lorentz=lorentz)

