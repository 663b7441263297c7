"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An iterative routine failed to converge or a search bracket collapsed."""


class InfeasibleError(ValueError):
    """A requested target lies outside the feasible range."""


class DegenerateGeometryError(ValueError):
    """The channel geometry admits no solution (e.g. cross channel parallel to self channel)."""
