"""Exception types shared across the package."""


class RouteDesignError(Exception):
    """Base class for package-specific errors."""


class NumericalError(RouteDesignError):
    """Base class for failures of iterative or linear-algebraic routines."""


class NegativeCycleError(NumericalError):
    """Link weights admit unbounded descent along a cycle."""


class UnreachableError(RouteDesignError):
    """No directed path exists between the requested nodes."""


class BrokenPathError(RouteDesignError):
    """A link sequence does not chain origin to destination."""


class InfeasibleFlowError(NumericalError):
    """A flow violates conservation beyond the feasibility tolerance."""


class ExponentOverflowError(NumericalError):
    """The smoothed-map exponent grew past the safe evaluation range."""


class NotConvergedError(NumericalError):
    """An iterative solve hit its iteration budget before reaching tolerance."""


class NotSymmetricError(RouteDesignError):
    """A symmetric eigendecomposition was requested on an asymmetric matrix."""
