"""Exception types shared across the package."""


class CommexpError(Exception):
    """Base class for all library-specific failures."""


class DimensionError(CommexpError, ValueError):
    """Matrix dimensions are incompatible or outside the supported range."""


class SpectrumOverflowError(CommexpError, OverflowError):
    """Finite input whose eigenvalues, or their differences, overflow to inf;
    the message names the matrix (F, G or F + G)."""


class ResidualOverflowError(CommexpError, OverflowError):
    """A verdict's residual is not finite: an exponential of the pair, or
    its norm, overflows although the spectra do not; the message names the
    first such relation and its t."""


class DeflationError(CommexpError):
    """Trace criterion says triangularizable but the basis built from common
    eigenvectors in the kernel of the commutator ideal fails the
    upper-triangularity check; signals a tolerance inconsistency."""


class ComplexRootsError(CommexpError, ValueError):
    """A construction that requires real roots hit a negative discriminant."""


class ConstraintError(CommexpError, ValueError):
    """Parameter record violates one of its side conditions."""


class RankError(CommexpError):
    """No square-root sign assignment achieves the required rank."""


class InvalidUError(CommexpError, ValueError):
    """Claimed root of e^u = 1 + u fails the residual bound."""


class NoConvergenceError(CommexpError):
    """Newton iteration did not reach the residual target."""


class ZeroRootError(CommexpError):
    """Iteration converged to the excluded trivial root u = 0."""


class SchemaError(CommexpError):
    """A report or matrix document does not match its JSON schema, or a
    schema uses a keyword the built-in validator does not implement."""
