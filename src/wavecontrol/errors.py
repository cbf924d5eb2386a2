"""Exception types shared across the package, and the number checks that
raise one: the code that reads a number checks it with these, once."""

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


def real_number(name, value) -> float:
    """value as a float when it is a real number (an int or a float, not a
    bool) that is finite in float64; ConfigError otherwise."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:           # an int beyond float64's range
            v = math.inf
        if math.isfinite(v):
            return v
    raise ConfigError(f"{name}: must be a finite number")


def whole_number(name, value) -> int:
    """value as an int when it is a whole real_number of at least 0;
    ConfigError otherwise."""
    if real_number(name, value) < 0 or value != int(value):
        raise ConfigError(f"{name}: must be a whole number >= 0")
    return int(value)
