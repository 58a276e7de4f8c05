"""Exception types shared across the package."""


class IsingfitError(Exception):
    """Base class for all package errors."""


class AsymmetryError(IsingfitError):
    pass


class DiagonalError(IsingfitError):
    pass


class DimensionMismatch(IsingfitError):
    pass


class IndexOutOfRange(IsingfitError):
    pass


class EmptySubset(IsingfitError):
    pass


class MissingAssignment(IsingfitError):
    pass


class DimensionTooLarge(IsingfitError):
    pass


class ShapeMismatch(IsingfitError):
    pass


class AllDegenerate(IsingfitError):
    pass


class LengthMismatch(IsingfitError):
    pass


class NotBinary(IsingfitError):
    pass


class DegenerateFamily(IsingfitError):
    pass


class NonFinite(IsingfitError):
    pass


class RetryExhausted(IsingfitError):
    pass


class InvalidEta(IsingfitError):
    pass


class NegativeWeight(IsingfitError):
    pass


class ZeroDenominator(IsingfitError):
    pass


class NormBudgetExceeded(IsingfitError):
    pass


class TooManyGroups(IsingfitError):
    pass
