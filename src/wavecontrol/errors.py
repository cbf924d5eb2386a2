"""Exception types shared across the package, and the count check that
raises one."""

import math
from numbers import Real


class ConfigError(ValueError):
    """Invalid grid, region, nonlinearity, or experiment configuration."""


class BlowupError(RuntimeError):
    """Nonfinite values appeared during time stepping."""

    def __init__(self, time_level, message=None):
        self.time_level = time_level
        super().__init__(message or f"nonfinite values at time level {time_level}")


class InsufficientRecords(ValueError):
    """Not enough usable iterates for a convergence-order fit."""


def whole_number(name, value) -> int:
    """value as an int when it is a whole number (an int or an integral
    float, not a bool) of at least 0; ConfigError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or value != int(value) or value < 0):
        raise ConfigError(f"{name}: must be a whole number >= 0")
    return int(value)
