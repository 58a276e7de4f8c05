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


class UnsortedEdges(IsingfitError):
    """An edge list whose pairs are not strictly increasing in row-major
    order: out of order, or a pair listed twice."""


class DimensionTooLarge(IsingfitError):
    pass


class ShapeMismatch(IsingfitError):
    pass


class AllDegenerate(IsingfitError):
    pass


class LengthMismatch(IsingfitError):
    pass


class NonFinite(IsingfitError):
    pass


class RetryExhausted(IsingfitError):
    pass


class InvalidEta(IsingfitError):
    pass


class NegativeWeight(IsingfitError):
    pass


class NormBudgetExceeded(IsingfitError):
    pass


class TooManyGroups(IsingfitError):
    pass


class InvalidBudget(IsingfitError):
    """A norm budget M that is NaN, infinite or negative."""


class InvalidTolerance(IsingfitError):
    """A KKT residual target grad_tol that is NaN, infinite or negative."""


class NotContracting(IsingfitError):
    """A model whose Glauber chain has no path-coupling contraction:
    alpha = max_i sum_j tanh|J_ij| >= 1."""


class NotCliqueUnion(IsingfitError):
    """An edge support that is not a disjoint union of cliques with one
    coupling each, the models that ``component_sample`` draws from."""
