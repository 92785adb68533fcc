"""Exception types shared across the package."""


class LiePosetError(Exception):
    """Base class for all errors raised by this package."""


class LabelOrderViolation(LiePosetError):
    """A relation (i, j) with i >= j breaks the natural labeling."""


class OutOfRange(LiePosetError):
    """An element is outside {1..n}."""


class SizeBound(LiePosetError):
    """Input exceeds a desk-scale guard."""


class HeightBound(LiePosetError):
    """Operation is only defined for posets of bounded height."""


class Disconnected(LiePosetError):
    """Operation requires a connected poset."""


class NotInterior(LiePosetError):
    """Element is extremal where an interior element is required."""


class TooSmall(LiePosetError):
    """Poset too small to carry a trace-zero matrix algebra."""


class JacobiViolation(LiePosetError):
    """Structure constants fail the Jacobi identity; carries a witness triple."""

    def __init__(self, triple, message=None):
        self.triple = triple
        super().__init__(message or f"Jacobi identity fails on basis triple {triple}")


class EvenDimension(LiePosetError):
    """Contact machinery is undefined in even dimension."""


class ShapeMismatch(LiePosetError):
    """Matrix has the wrong shape or symmetry for the requested operation."""


class RuleBlockMismatch(LiePosetError):
    """Gluing rule does not apply to the given building block."""


class RulePreconditionViolated(LiePosetError):
    """A gluing rule's identification pattern or side condition fails."""


class PolarityMismatch(LiePosetError):
    """Identification target has the wrong polarity (minimal vs maximal)."""


class InvalidSequence(LiePosetError):
    """A block sequence is not a valid contact sequence."""

    def __init__(self, step_index, message):
        self.step_index = step_index
        super().__init__(f"step {step_index}: {message}")


class NotFrobenius(LiePosetError):
    """A component required to be Frobenius is not."""


class RegularSearchExhausted(LiePosetError):
    """Bounded random search for a regular one-form failed."""


class MorseConditionViolated(LiePosetError):
    """A face assignment is not a discrete Morse function; carries a witness face."""

    def __init__(self, face, message=None):
        self.face = face
        super().__init__(message or f"Morse condition fails at face {face}")


class DiscrepancyFound(LiePosetError):
    """A cross-validation sweep found disagreeing oracles (build-stopping)."""


class InternalInvariant(LiePosetError):
    """A condition the package's own construction guarantees does not hold
    (a bug, never bad input); raised, so that it survives `python -O`."""
