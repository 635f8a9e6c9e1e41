"""Exception types shared across the package."""


class MoikitError(Exception):
    """Base class for all moikit errors."""


class CoincidentNodes(MoikitError):
    """Nodes coincide (within tolerance) and the required derivatives are unavailable."""


class InsufficientDerivatives(MoikitError):
    """The function does not supply enough derivative evaluators."""


class NotHermitian(MoikitError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class ConvergenceFailure(MoikitError):
    """An eigensolver did not converge: LAPACK failed, or Jacobi ran out of sweeps."""


class EvaluationDomain(MoikitError):
    """A scalar function is not defined (or not finite) at a required point."""


class ArityMismatch(MoikitError):
    """Symbol arity does not match the number of spectral decompositions."""


class DimensionMismatch(MoikitError):
    """Operand matrices do not share a common dimension."""


class MissingPermutation(MoikitError):
    """A symmetrization was requested without all permutation evaluations."""


class InvalidP(MoikitError):
    """Schatten exponent outside [1, inf]."""


class HolderMismatch(MoikitError):
    """Schatten exponents do not satisfy the required Holder relation."""
