"""Exception hierarchy for the bspde package.

Numerical failures (divergence, fixed-point stall, singular designs) are kept
distinct from usage errors (bad partitions, bad configs) so that batch
drivers can map them to different exit codes.
"""


class BspdeError(Exception):
    """Base class for all package-specific errors."""


class InvalidDomainError(BspdeError):
    """Nonpositive terminal time or edge length."""


class InvalidPartitionError(BspdeError):
    """Structurally invalid partition (zero counts, dimension bounds, ...)."""


class OrderTooHighError(BspdeError):
    """Requested derivative order violates the grid order bound."""


class CapacityError(BspdeError):
    """Requested simulation exceeds the configured memory budget."""


class SingularDesignError(BspdeError):
    """Rank-deficient regression normal equations with zero ridge."""


class OperatorEvaluationError(BspdeError):
    """An operator callback produced a non-finite value."""


class DivergenceError(BspdeError):
    """A solver stage produced a non-finite field."""


class FixedPointDivergenceError(BspdeError):
    """The implicit stage's fixed-point iteration failed to converge."""


class ReferenceRequiredError(BspdeError):
    """An operation needs an analytic reference the problem does not supply."""


class ConfigError(BspdeError):
    """Invalid experiment configuration."""
