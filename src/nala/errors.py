"""Exception types shared across the package."""


class NonFinite(ValueError):
    """An input entry is NaN or infinite."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class WrongKernel(ValueError):
    """A kernel spec of the wrong kind was passed to an operation."""


class NonPositiveSum(ValueError):
    """A nonnegative sequence summed to zero, so it has no entropy."""


class DegenerateSequence(ValueError):
    """A constant sequence was passed where a unique maximum is required."""


class InvalidPerturbation(ValueError):
    """A finite-difference step would leave the valid domain."""


class NearSingular(ValueError):
    """The evaluation point is too close to a non-differentiable set."""
