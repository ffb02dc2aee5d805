"""Exception types shared across the library."""


class EwsError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(EwsError, ValueError):
    """Input matrix violates the Hermiticity tolerance."""


class NoConvergenceError(EwsError, RuntimeError):
    """LAPACK eigensolver or SVD failed to converge, a see-saw value
    sequence lost its monotonicity, or a local filter missed its target."""


class LengthMismatchError(EwsError, ValueError):
    """Vector arguments have incompatible lengths."""


class NormViolationError(EwsError, ValueError):
    """Coefficients do not form a unit vector."""


class RankTooLargeError(EwsError, ValueError):
    """Schmidt rank exceeds min(m, n)."""


class IndexOutOfRangeError(EwsError, ValueError):
    """Requested index lies outside the valid range."""


class BadParamError(EwsError, ValueError):
    """Parameter outside its documented range."""


class TraceViolationError(EwsError, ValueError):
    """Operator trace differs from one beyond tolerance."""


class BadSpectrumError(EwsError, ValueError):
    """Spectrum argument is not a valid probability-like vector."""


class BadRankError(EwsError, ValueError):
    """Requested sampling rank is invalid."""


class ProductStateError(EwsError, ValueError):
    """Pure state has Schmidt rank one, so its transpose is not a witness."""


class NotPPTError(EwsError, ValueError):
    """State fails the positive-partial-transpose requirement."""


class FullRankError(EwsError, ValueError):
    """State (or its partial transpose) has trivial kernel."""


class EpsilonVanishesError(EwsError, RuntimeError):
    """Product-vector infimum of the kernel witness vanishes; no margin exists."""


class OrthogonalityError(EwsError, ValueError):
    """Boost direction is not orthogonal to the stored detected state."""


class IsPPTError(EwsError, ValueError):
    """Detection pipeline requires a state with non-positive partial transpose."""


class BoostDenominatorError(EwsError, RuntimeError):
    """Filtered state has vanishing overlap with the boost direction."""


class NoConvergedRestartError(EwsError, RuntimeError):
    """Every optimizer restart hit the iteration cap."""


class UnknownSuiteError(EwsError, ValueError):
    """Requested verification suite is not registered."""
