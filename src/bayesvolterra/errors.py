"""Exception types shared across the package, and the one check of a number
that enters from outside.

checked is the rule for every number a user sets, whether it comes from a
config object, a saved manifest, a CLI flag or a scoring call: booleans
and strings are never read as numbers, sizes are integers, values are
finite unless a caller says otherwise, and a refusal is a ValueError that
names the field.
"""

import math
import numbers

import numpy as np


class BayesVolterraError(Exception):
    """Base class for errors raised by this package."""


class NumericFailure(BayesVolterraError):
    """A linear solve or bound evaluation produced an unusable result.

    Carries the sweep index when raised from inside the fit loop.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration

    def __str__(self):
        base = super().__str__()
        if self.iteration is not None:
            return f"sweep {self.iteration}: {base}"
        return base


class DataFormatError(BayesVolterraError):
    """Raised when an input CSV cannot be parsed into a dataset."""


class ModelFormatError(BayesVolterraError):
    """Raised when a stored model directory fails validation."""


def checked(name, value, kind=float, minimum=None, strict=False, finite=True):
    """`kind(value)` for a real `value` (an integral one when `kind` is int)
    of at least `minimum`, or above it when `strict`; finite unless
    `finite` is false.

    Anything else raises a ValueError that starts with `name`: a boolean
    (Python or numpy), a string, None, an array or a fraction where an
    integer is due, a value out of range (NaN is out of every range) or an
    infinite one. An int too large for a float raises float's
    OverflowError.
    """
    integer = kind is int
    base = numbers.Integral if integer else numbers.Real
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, base):
        noun = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    value = kind(value)
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        if strict:
            rule = "positive" if minimum == 0 else f"greater than {minimum}"
        else:
            rule = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {rule}")
    if finite and not integer and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value
