"""Exact-arithmetic construction and verification of the multi-spin 0,1 field algebra.

The package builds, over the Gaussian rationals, the matrix-unit basis
of the 11-component field space, the first-order wave matrices and
their two trilinear algebras, energy and spin projectors with their
rank-one dyad factorisations, the single-mode canonical formalism with
its pseudo-unitary charge algebra, a truncated indefinite-metric Fock
space, and the two-mode electromagnetic reduction.  Every claimed
identity is decided by exact equality; the `verify` CLI and the
acceptance test suite run the full inventory.
"""

from .exact import ExactMatrix, GaussianRational, mat_commutator, mat_inverse, mat_rank
from .epsilon import DIM4, DIM5, DIM10, DIM11, SPACES, SpaceView, epsilon
from .wave import WaveMatrices, wave_matrices
from .projectors import (FourMomentum, IrrationalMomentumError, ProjectorFamily,
                         RestFrameError, SolutionDyad, dyad_factorize,
                         p_slash, pure_state_projector,
                         spin_projection_op, spin_squared)
from .modes import (ModeContext, QuadraticObservable, U31Params,
                    conserved_charges, generating_function, hamiltonian,
                    infinitesimal_transform, poisson_bracket)
from .fock import (BilinearOperator, FockPolyState, LadderOp,
                   TruncationOverflowError, apply_ladder, decompose_physical,
                   energy_operator, inner_product, quantize, quantum_charges)
from .em import U2Element, em_hamiltonian, stokes_expectations, su2_charges
from .report import SuiteConfig, VerificationReport, run

__version__ = "0.1.0"
