"""Budget caps for the brute-force oracles, the transfer build, the
augmented state spaces and the size of an evaluated term.

Caps are configuration, not constants: exceeding one raises a clean error,
never a silent truncation.  `Budget.with_bits` resizes the exponential-work
caps to a single bit count, as the CLI's --budget-bits does.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InconsistencyError


@dataclass(frozen=True)
class Budget:
    ryser_max_dim: int = 24       # column-set DP, exponential in open columns; dimension cap
    enum_max_size: int = 20       # exhaustive cover enumeration: matrix size cap
    enum_max_jumps: int = 4       # exhaustive cover enumeration: jump count cap
    pairing_state_cap: int = 4096  # augmented (pairing x moment) dimension cap
    transfer_max_width: int = 10  # transfer class width w: 4^w classes
    eval_max_bits: int = 1 << 22  # eval: bound on the bit length of T(n)

    def with_bits(self, bits: int) -> "Budget":
        """Resize the exponential-work caps to `bits` bits of work."""
        if bits < 1:
            raise InconsistencyError(f"budget bits must be positive, got {bits}")
        return replace(self, ryser_max_dim=bits, enum_max_size=bits,
                       pairing_state_cap=1 << min(bits, 24),
                       transfer_max_width=bits // 2,
                       eval_max_bits=1 << min(bits, 62))

