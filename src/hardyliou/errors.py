"""Exception and warning types shared across the library."""


class HardyliouError(Exception):
    """Base class for all library-specific errors."""


class DiskDomainError(HardyliouError, ValueError):
    """A point that must lie strictly inside the unit disk does not."""


class InvalidKernelSpecError(HardyliouError, ValueError):
    """Kernel specification is inconsistent (e.g. a negative derivative order)."""


class AliasingError(HardyliouError, ValueError):
    """Boundary grid too coarse for the requested truncation order."""


class SingularSymbolError(HardyliouError, ValueError):
    """Series reciprocal (or a symbol quotient) is undefined at the origin."""


class LogDomainError(HardyliouError, ValueError):
    """Boundary modulus contains nonpositive samples; its log is undefined."""


class SymbolHasZerosError(HardyliouError, ValueError):
    """Zero-free certificate failed for a symbol required to be zero-free."""


class InvalidIndexError(HardyliouError, ValueError):
    """A branch or multiplicity index lies outside the admissible range."""


class CompositionOutOfDiskError(HardyliouError, ValueError):
    """A composition symbol maps a required point out of the unit disk."""


class SymbolOverflowError(HardyliouError, ValueError):
    """A finite symbol overflows to non-finite values; the message names the symbol."""


class StepBudgetError(HardyliouError, ValueError):
    """A requested step count exceeds the fixed budget; raised before allocating."""


class DiskExitError(HardyliouError, RuntimeError):
    """An integrated trajectory left the allowed disk before the final time."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(message)
        self.exit_time = exit_time


class InsufficientDataError(HardyliouError, ValueError):
    """Too few samples for the requested quadrature."""


class TrajectoryIngestionError(HardyliouError, ValueError):
    """Trajectory CSV is malformed; the message cites file and row."""


class IllConditionedError(HardyliouError, RuntimeError):
    """A linear system is numerically singular, or its entries overflow."""


class EigenConvergenceError(HardyliouError, RuntimeError):
    """Eigenvalue iteration failed; the message carries a condition report."""


class ConfigError(HardyliouError, ValueError):
    """An experiment configuration failed validation."""


class TrajectoryMismatchWarning(UserWarning):
    """Trajectory samples do not satisfy the claimed vector field."""


class LowConfidenceWarning(UserWarning):
    """Prediction requested from a model whose observable projection is poor."""


class CompositionWarning(UserWarning):
    """A composition symbol is used outside its recommended domain."""
