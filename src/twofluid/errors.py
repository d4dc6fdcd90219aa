"""Exception types shared across the package."""


class TwoFluidError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(TwoFluidError):
    """A physical or numerical configuration violates its invariants."""


class DegenerateGeometryError(TwoFluidError):
    """The interface touches (or crosses) the bottom or the lid."""


class IncompatibleDataError(TwoFluidError):
    """Boundary or source data violates a solvability condition."""


class NumericalError(TwoFluidError):
    """A solve failed its residual check or met non-finite values."""
