"""Exception types shared across the package."""


class LsccError(Exception):
    """Base class for all package errors."""


class DimensionError(LsccError):
    """Operand shapes are incompatible."""


class FieldError(LsccError):
    """Operation requested over an unsupported scalar field."""


class UnsupportedPError(LsccError):
    """Operation is only defined for specific measurement exponents p."""


class BudgetExceededError(LsccError):
    """Exact enumeration would exceed the configured budget."""


class TopologyError(LsccError):
    """Graph is not ring-shaped: an edge is neither (i, i+1) nor (0, n-1)."""


class EmptyGraphError(LsccError):
    """Operation needs at least one retained vertex."""


class InvalidWeightError(LsccError):
    """A nonpositive weight survived graph induction."""


class SchemeError(LsccError):
    """Measurement scheme construction or validation failed."""


class ClassError(LsccError):
    """Signal is outside the signal class an operation requires."""


class DegenerateFamilyError(LsccError):
    """Every sampled comparison signal was phase-equivalent to the reference."""


class DegenerateFrameError(LsccError):
    """Frame constants degenerate (sigma = 0 or frame bound 0)."""
