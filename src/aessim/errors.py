"""Exception types shared across the evasive-steering stack."""


class AesError(Exception):
    """Base class for all stack-specific errors."""


class ConfigError(AesError):
    """Scenario configuration is missing fields or fails validation."""


class DegenerateSpeed(AesError):
    """Pre-braking would bring the vehicle to or below the minimum planning speed."""


class InfeasibleProfile(AesError):
    """No heading headroom left to evade in the requested direction."""


class NoFeasiblePath(AesError):
    """Path-set generation could not produce any usable path."""


class PathExhausted(AesError):
    """The match point reached the final path sample; the manoeuvre is over."""


class NumericalDivergence(AesError):
    """Plant state left its sanity bounds during integration; `state` is
    the last plant state that stayed within them."""

    state = None
