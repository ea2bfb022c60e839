"""Exception types shared across the package."""


class BellDiagError(ValueError):
    """Base class for all validation errors raised by this package."""


class NotHermitianError(BellDiagError):
    """Input matrix is not Hermitian within tolerance."""


class NegativeSpectrumError(BellDiagError):
    """Matrix has an eigenvalue below the allowed clip floor."""


class DimensionMismatchError(BellDiagError):
    """Operand dimensions are inconsistent."""


class NotAStateError(BellDiagError):
    """Matrix violates a density-matrix invariant (the message names which)."""


class InvalidProbabilitiesError(BellDiagError):
    """Probabilities are out of [0, 1] or do not sum to one."""


class OutOfRangeError(BellDiagError):
    """Scalar parameter lies outside its documented range."""


class InvalidLayoutError(BellDiagError):
    """Qubit layout is not an injective map onto physical indices."""


class OptimizerFailureError(BellDiagError):
    """Numerical optimization produced non-finite objective values."""
