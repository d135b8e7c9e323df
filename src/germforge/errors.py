"""Exception types shared across the library.

Every failure that carries diagnostic value gets its own class so callers can
react programmatically; all inherit from GermforgeError.
"""


class GermforgeError(Exception):
    """Base class for all library errors."""


class NonConvergence(GermforgeError):
    """Fixed-point or Newton iteration failed to reach the requested tolerance.

    Carries the last residual so the failure is diagnosable.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularLinearization(GermforgeError):
    """I - D2B (or an equivalent linearization) is numerically singular."""


class NotAZero(GermforgeError):
    """The supplied point does not annihilate the section within tolerance."""


class NotSurjective(GermforgeError):
    """A linearization required to be onto has a rank deficit."""


class MismatchAtPoint(GermforgeError):
    """Section values expected to agree at a point do not."""


class DegenerateSplitting(GermforgeError):
    """Numerical rank of a splitting operator is ambiguous near the cutoff."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class NotPointed(GermforgeError):
    """Cone has a nontrivial lineality space; carries a basis of it."""

    def __init__(self, message, lineality_basis=None):
        super().__init__(message)
        self.lineality_basis = lineality_basis


class Inconclusive(GermforgeError):
    """A bounded search (not a proof) ran out of candidates."""


class PositionNotCertified(GermforgeError):
    """Boundary construction requires a good-position certificate."""


class NoOverlap(GermforgeError):
    """Two charts do not share the supplied zero."""


class Singular(GermforgeError):
    """An operator required to be invertible is not."""


class NotSurjectiveAfterProjection(GermforgeError):
    """P∘T fails to be onto the range of P."""


class GridTooCoarse(GermforgeError):
    """Frame transport jumped too far between grid nodes; refine the grid."""


class BudgetExceeded(GermforgeError):
    """Perturbation norm budget violated."""


class WindowEscape(GermforgeError):
    """A polished zero landed outside the declared window (non-proper model)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class RetryExhausted(GermforgeError):
    """No regular value was found: rejection sampling hit the retry limit,
    or a degenerate zero, `failing_zero` where known, cannot be bumped."""

    def __init__(self, message, failing_zero=None):
        super().__init__(message)
        self.failing_zero = failing_zero


class IndexMismatch(GermforgeError):
    """Degree is only defined for index-0 problems."""


class InvarianceViolation(GermforgeError):
    """Degree changed across perturbations or along a homotopy."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class DimensionUnsupported(GermforgeError):
    """Form degree above the supported maximum."""


class AtlasIncomplete(GermforgeError):
    """Charts do not cover the solution set."""


class ConfigError(GermforgeError):
    """Harness configuration failed to parse or validate."""
