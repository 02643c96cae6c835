"""The package's exception and warning classes.

This module imports nothing, so a caller that needs only these classes
(``cli``, ``io``, ``pure_floats`` and the command modules) loads neither
numpy nor ``core``.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or construction invariant."""


class DimensionMismatchError(ValidationError):
    """Bipartite local dimension does not match the supplied matrix."""


class NumericalDriftWarning(UserWarning):
    """Eigenvalue clipping exceeded the expected floating-point drift."""


class InconclusiveCertificateError(RuntimeError):
    """Degenerate spectrum prevented a well-defined certificate evaluation."""


class IncoherentInputError(ValidationError):
    """The input state is already incoherent, so the certificate is vacuous."""
