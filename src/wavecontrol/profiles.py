"""Named analytic data profiles for initial and target states.

Profiles keep experiment configurations human-writable and
resolution-independent: the same description samples onto any grid.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import StatePair
from .grids import SpaceTimeGrid


def sample_profile(grid: SpaceTimeGrid, spec: dict) -> np.ndarray:
    """Sample one scalar profile onto the spatial grid.

    zero                   {}
    eigenmode              k (int, 1D) or [kx, ky]; amplitude
    bump                   center (float or [x, y]); width; amplitude
    """
    spec = dict(spec)
    name = spec.pop("profile", None)
    if name == "zero" or name is None:
        _reject_extras(name or "zero", spec)
        return np.zeros(grid.shape)
    if name == "eigenmode":
        amplitude = _number(spec, "amplitude", 1.0)
        ks = _numbers(spec, "k", 1)
        _reject_extras(name, spec)
        if ks.size != grid.dim:
            raise ConfigError(f"eigenmode k must have {grid.dim} component(s)")
        out = np.ones(grid.shape) * amplitude
        coords = grid.meshgrid()
        for axis in range(grid.dim):
            out = out * np.sin(ks[axis] * np.pi * coords[axis] / grid.lengths[axis])
        return out
    if name == "bump":
        amplitude = _number(spec, "amplitude", 1.0)
        width = _number(spec, "width", 0.2)
        center = _numbers(spec, "center", [L / 2 for L in grid.lengths])
        _reject_extras(name, spec)
        if center.size != grid.dim or width <= 0:
            raise ConfigError("bump needs a center per axis and a positive width")
        coords = grid.meshgrid()
        rho2 = np.zeros(grid.shape)
        for axis in range(grid.dim):
            rho2 = rho2 + ((coords[axis] - center[axis]) / width) ** 2
        out = np.zeros(grid.shape)
        inside = rho2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        return out
    raise ConfigError(f"unknown profile {name!r}")


def _numbers(spec, key, default) -> np.ndarray:
    """Pop spec[key], a number or a list of numbers, as a 1D float array;
    absent or null selects the default."""
    value = spec.pop(key, None)
    if value is None:
        value = default
    try:
        arr = np.atleast_1d(np.asarray(value))
    except ValueError:          # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ConfigError(f"profile key {key!r} must be a number or a list of "
                          f"numbers, got {value!r}")
    return arr.astype(float)


def _number(spec, key, default) -> float:
    """Pop spec[key], a single number."""
    arr = _numbers(spec, key, default)
    if arr.size != 1:
        raise ConfigError(f"profile key {key!r} must be a number, got {arr.size} values")
    return float(arr[0])


def _reject_extras(name, spec):
    if spec:
        raise ConfigError(f"unexpected keys for profile {name!r}: {sorted(spec)}")


def build_state(grid: SpaceTimeGrid, spec: dict) -> StatePair:
    """Build a StatePair from {"position": {...}, "velocity": {...}}."""
    spec = dict(spec)
    pos = sample_profile(grid, spec.pop("position", {"profile": "zero"}))
    vel = sample_profile(grid, spec.pop("velocity", {"profile": "zero"}))
    if spec:
        raise ConfigError(f"unexpected keys in state description: {sorted(spec)}")
    return StatePair(grid, pos, vel)
