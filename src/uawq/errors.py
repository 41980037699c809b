"""Exception hierarchy shared by all uawq modules."""


class UawqError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(UawqError):
    pass


class DExcluded(UawqError):
    """The requested root-of-unity order is one of the excluded values 1, 2, 4."""


class DOrderUnavailable(UawqError):
    """No element of the requested multiplicative order exists (d does not divide p^2 - 1)."""


class DivisionByZero(UawqError, ZeroDivisionError):
    pass


class NeedsExtension(UawqError):
    """The requested value exists only in a proper extension of F_{p^2}."""


class NotASquare(NeedsExtension):
    pass


class WeightOutsideField(NeedsExtension):
    """A weight mu solving mu + 1/mu = theta lies outside F_{p^2}."""


class NuOutsideField(NeedsExtension):
    """The spectral scalar has no root in F_{p^2}."""


class NoSolutionsInField(NeedsExtension):
    """A solve produced no parameter tuples inside F_{p^2}."""


class ZeroPolynomial(UawqError):
    pass


class BadRange(UawqError):
    pass


class NotAWeight(UawqError):
    pass


class ZeroVector(UawqError):
    pass


class CaseNotApplicable(UawqError):
    """None of the closed-form cases matches the supplied spectral data."""


class CapExceeded(UawqError):
    """An equivalence closure did not stabilize within the node budget."""


class DimensionMismatch(UawqError):
    pass


class InvariantViolation(UawqError):
    """An internal invariant failed; raised instead of ``assert`` so the check
    also runs under ``python -O``."""
