"""Exception types shared across the package."""


class IsingBathError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(IsingBathError, ValueError):
    """A physical parameter is outside its allowed range."""


class NoConvergence(IsingBathError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class InvalidState(IsingBathError, ValueError):
    """A pure-state amplitude vector is not normalized (or not finite)."""


class NotADensityMatrix(IsingBathError, ValueError):
    """A matrix violates Hermiticity, unit trace or positivity tolerances."""


class ConfigTooLarge(IsingBathError, ValueError):
    """The dense oracle route was asked for more than MAX_BATH_SIZE bath spins."""
