"""Budget caps for the brute-force oracles and augmented state spaces.

Caps are configuration, not constants: exceeding one raises a clean error,
never a silent truncation.  The env var CIRCPERM_BUDGET overrides the two
exponential-work caps with a single bit count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InconsistencyError


@dataclass(frozen=True)
class Budget:
    ryser_max_dim: int = 24       # Ryser is Theta(n 2^n); dimension cap
    enum_max_size: int = 20       # exhaustive cover enumeration: matrix size cap
    enum_max_jumps: int = 4       # exhaustive cover enumeration: jump count cap
    pairing_state_cap: int = 4096  # augmented (pairing x moment) dimension cap

    def with_bits(self, bits: int) -> "Budget":
        """Resize the exponential-work caps to `bits` bits of work."""
        if bits < 1:
            raise InconsistencyError(f"budget bits must be positive, got {bits}")
        return replace(self, ryser_max_dim=bits, enum_max_size=bits,
                       pairing_state_cap=1 << min(bits, 24))


def default_budget() -> Budget:
    b = Budget()
    env = os.environ.get("CIRCPERM_BUDGET")
    if env:
        try:
            bits = int(env)
        except ValueError:
            raise InconsistencyError(
                f"CIRCPERM_BUDGET must be an integer, got {env!r}") from None
        b = b.with_bits(bits)
    return b
