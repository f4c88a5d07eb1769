"""Exception hierarchy. Exit-code mapping lives in the CLI."""


class CircPermError(Exception):
    """Base class for all package errors."""


class SpecSyntaxError(CircPermError):
    """Malformed jump/size/weight text, or duplicate jumps."""


class InconsistencyError(CircPermError):
    """Structurally invalid specification or parameter (e.g. linear jump
    without a size law, a size <= 0, a negative moment order)."""


class CollisionError(CircPermError):
    """Two jumps are congruent mod the matrix size at this n; the instance is degenerate."""


class BlockStructureError(CircPermError):
    """The transfer matrix is not diag(A-bar, ..., A-bar) under the canonical order."""


class AnnihilationError(CircPermError):
    """A polynomial that must annihilate the transfer block does not."""


class NoRecurrenceError(CircPermError):
    """No linear recurrence up to the degree cap fits the terms (always a bug signal)."""


class SizeCapError(CircPermError):
    """An oracle or the transfer build was asked to exceed its configured
    budget."""


class StateBudgetError(CircPermError):
    """The pairing-state space exceeds the configured budget."""
