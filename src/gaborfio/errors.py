"""Exception hierarchy.

ConfigError maps to CLI exit code 2, NumericalError and its subclasses to
exit code 3. Plain ValueError is used for caller mistakes (bad arguments,
grid mismatches) and also maps to exit code 2 at the CLI boundary.
"""

__all__ = ["ConfigError", "NumericalError", "NotAFrameError", "SolverError",
           "HypothesisError", "SingularTimeError", "NoSignalError",
           "InsufficientDataError"]


class ConfigError(Exception):
    """Invalid or unknown configuration input."""


class NumericalError(Exception):
    """A computation failed in a way the caller cannot fix by retrying."""


class NotAFrameError(NumericalError):
    """Lower frame bound numerically zero at this lattice truncation."""


class SolverError(NumericalError):
    """Iterative solver failed to converge.

    Carries the last relative residual and, for Newton solves, the last
    iterate, so callers can report how close the solve got.
    """

    def __init__(self, message, residual=None, last_iterate=None):
        super().__init__(message)
        self.residual = residual
        self.last_iterate = last_iterate


class HypothesisError(NumericalError):
    """Operator violates a structural hypothesis (degenerate mixed Hessian).

    min_det is the smallest sampled |det| of the mixed second-derivative
    block, for error messages.
    """

    def __init__(self, message, min_det=None):
        super().__init__(message)
        self.min_det = min_det


class SingularTimeError(NumericalError):
    """Propagator requested at a time where its closed form blows up."""

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class NoSignalError(NumericalError):
    """All magnitude samples sit below the noise floor."""


class InsufficientDataError(NumericalError):
    """Too few usable samples for a stable fit."""
