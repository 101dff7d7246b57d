"""Exception hierarchy for the bspde package.

Numerical failures (divergence, fixed-point stall, singular designs) are kept
distinct from usage errors (bad partitions, bad configs) so that batch
drivers can map them to different exit codes.
"""

import numbers

import numpy as np


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


# kind -> (description, accepted types); a bool is neither an integer nor a number
_KINDS = {
    "integer": ("an integer", numbers.Integral),
    "number": ("a number", numbers.Real),
    "flag": ("true or false", (bool, np.bool_)),
}


def check_value(name, value, kind, low=None, strict=False, optional=False):
    """Return value if it is of kind ("integer", "number" or "flag") and, when
    low is given, >= low (> low when strict), or None when optional; raise
    InvalidPartitionError naming name otherwise.  2.0 is not an integer."""
    if optional and value is None:
        return value
    what, types = _KINDS[kind]
    if not isinstance(value, types) or (kind != "flag" and isinstance(value, bool)):
        raise InvalidPartitionError(f"{name} must be {what}, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise InvalidPartitionError(f"need {name} {'>' if strict else '>='} {low}, got {value!r}")
    return value


def check_finite(values, error, what, where):
    """values as a float array if every entry is finite; else raise the
    caller's error class naming what, where and the first offending index."""
    values = np.asarray(values, dtype=float)
    # a broadcast repeats its entries along its zero-stride axes: scan each once; the first offending index
    # in C order has 0 on those axes.  A list: a generator here leaves garbage only the cycle collector frees
    distinct = values[tuple([slice(0, 1) if stride == 0 else slice(None) for stride in values.strides])]
    if not np.all(np.isfinite(distinct)):
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(distinct))[0])
        raise error(f"{what} became non-finite at {where}, first offending index {first}")
    return values
