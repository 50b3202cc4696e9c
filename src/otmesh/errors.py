"""Exception hierarchy shared across the package."""


class OtmeshError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(OtmeshError, ValueError):
    """Vectors with incompatible dimensions were combined."""


class SolverError(OtmeshError, RuntimeError):
    """A solver failed to produce an acceptable result."""


class NewtonError(SolverError):
    """Newton iteration did not converge or met a non-finite value.

    The message gives the last residual.
    """


class BlowUpError(SolverError):
    """Trajectory left the guard radius during integration."""


class HorizonError(OtmeshError, RuntimeError):
    """Time span exceeds the admissible horizon for an unbounded potential."""


class ConfigError(OtmeshError, ValueError):
    """Invalid run configuration."""
