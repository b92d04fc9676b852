"""Exception types shared across the package."""


class CarnotError(Exception):
    """Base class for all package-specific errors."""


class DescriptorError(CarnotError, ValueError):
    """Malformed group descriptor or mismatched operands."""


class SamplingError(CarnotError, RuntimeError):
    """A sampling step produced no admissible points."""


class NonSingletonSubdifferential(CarnotError, RuntimeError):
    """The subdifferential at a point is not a singleton, but a gradient
    was required."""

    def __init__(self, diameter, message=None):
        self.diameter = diameter
        super().__init__(message or f"subdifferential diameter {diameter:.3g} exceeds singleton tolerance")


class NonConvexSliceError(CarnotError, RuntimeError):
    """Difference quotients along a horizontal line are not monotone, which
    is inconsistent with convexity along that line."""


class RankDeficientDesign(CarnotError, RuntimeError):
    """The direction set does not identify all fit parameters."""
