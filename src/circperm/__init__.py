"""Exact recurrence derivation for permanents of circulant matrices.

The permanent of a circulant (equivalently, the number of cycle covers of
the directed circulant graph) satisfies a constant-coefficient linear
recurrence in the index n; this package derives that recurrence mechanically
with exact arithmetic, for constant and linear-in-n jumps, weighted
variants, cycle-count moments, and Hamiltonian-cycle counts, and
cross-validates everything against brute-force oracles.
"""
from .algebra import (GrowthEstimate, Recurrence, char_poly, eval_recurrence,
                      growth, min_recurrence)
from .budget import Budget
from .circulant import CirculantSpec, adjacency_matrix, normalize, parse_spec
from .errors import (AnnihilationError, BlockStructureError, CircPermError,
                     CollisionError, InconsistencyError, NoRecurrenceError,
                     SizeCapError, SpecSyntaxError, StateBudgetError)
from .extensions import (HamiltonianResult, MomentsResult, Pairing,
                         hamiltonian_derive, moments_derive, moments_ratio)
from .lattice import Decomposition, SymEdge, SymVertex, decompose
from .oracle import (CoverStats, brute_hamiltonian, enumerate_stats,
                     ryser_permanent)
from .pipeline import DeriveResult, derive, verify
from .transfer import TransferSystem, build_transfer_system, sequence

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
