"""Space-time fields, state snapshots and discrete norms.

L^2 and L^p norms use trapezoidal quadrature in space and time.  The
H^1_0 and H^-1 norms are realized spectrally in the sine eigenbasis of
the Dirichlet Laplacian: for v = sum v_hat_k phi_k with phi_k
orthonormal in L^2,

    |v|_{H^1_0}^2 = sum mu_k v_hat_k^2,
    |v|_{H^-1}^2  = sum v_hat_k^2 / mu_k,

where mu_k are the continuous eigenvalues (k pi / L)^2 (summed per axis
in 2D).  The discrete sine transform is normalized so that Parseval
holds exactly against the interior-node L^2 sum.

Every sine transform goes through `dst1`, which calls pocketfft's DST-I
binding, the one that ships with scipy, directly: `scipy.fft.dstn`, `idstn`
and `dst` with ``type=1, norm="ortho"`` make the same call, so the bits
are theirs, but importing `scipy.fft` loads some 85 scipy modules around
it, which was most of a run's set-up time and about 21 MB of its memory.

Every norm, the max-over-time ones included, holds at any finite
amplitude: a sum of squares (or p-th powers) that could have underflowed
or overflowed is summed again at a power-of-two scale (`_root_sum_powers`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError
from .grids import SpaceTimeGrid


_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """scipy's pocketfft binding, loaded from its extension file without
    running `scipy.fft`'s ``__init__`` (`find_spec` does not import scipy
    either); through its package, at that package's import cost, where the
    file is missing or does not load."""
    spec = importlib.util.find_spec("scipy")
    for root in getattr(spec, "submodule_search_locations", None) or []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if not os.path.isfile(path):
                continue
            try:
                loader = importlib.machinery.ExtensionFileLoader(_POCKETFFT, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_POCKETFFT, path, loader=loader))
                loader.exec_module(module)
                return module
            except ImportError:
                break
    from scipy.fft._pocketfft import pypocketfft
    return pypocketfft


_pocketfft = _load_pocketfft()


def dst1(x: np.ndarray, axes) -> np.ndarray:
    """The orthonormal DST-I of float64 `x` over `axes`, into a new array;
    it is its own inverse.  The call `scipy.fft.dstn`, `idstn` and `dst`
    make for ``type=1, norm="ortho"``: inorm 1 (ortho) and one worker,
    passed positionally as every scipy >= 1.10 binding takes them."""
    axes = tuple(a + x.ndim if a < 0 else a for a in axes)
    return _pocketfft.dst(x, 1, axes, 1, None, 1)


def _embed(grid: SpaceTimeGrid, interior: np.ndarray) -> np.ndarray:
    full = np.zeros(grid.shape)
    full[(slice(1, -1),) * grid.dim] = interior
    return full


@lru_cache(maxsize=32)
def _eigenvalues(lengths: tuple, shape: tuple) -> np.ndarray:
    """Dirichlet-Laplacian eigenvalues on the interior modes, grid-shaped."""
    return reduce(np.add.outer,
                  [(np.arange(1, n - 1) * np.pi / L) ** 2 for L, n in zip(lengths, shape)])


def eigenvalues(grid: SpaceTimeGrid) -> np.ndarray:
    return _eigenvalues(grid.lengths, grid.shape)


def sine_coefficients(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """DST of a spatial array (full grid, boundary ignored), Parseval-normalized.

    Leading axes, such as time levels, are kept: each spatial slice is
    transformed on its own.
    """
    v = values[(Ellipsis,) + (slice(1, -1),) * grid.dim]
    scale = math.sqrt(math.prod(grid.dx))
    return scale * dst1(v, range(-grid.dim, 0))


def from_sine_coefficients(grid: SpaceTimeGrid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of sine_coefficients, returns a full spatial array."""
    scale = math.sqrt(math.prod(grid.dx))
    return _embed(grid, dst1(coeffs / scale, range(-grid.dim, 0)))


def _trapezoid(h: float, n: int) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _space_weights(grid: SpaceTimeGrid) -> np.ndarray:
    return reduce(np.multiply.outer, [_trapezoid(h, n) for h, n in zip(grid.dx, grid.shape)])


def _time_weights(grid: SpaceTimeGrid) -> np.ndarray:
    return _trapezoid(grid.dt, grid.nt + 1)


@dataclass
class SpaceTimeField:
    """Scalar field sampled on the full space-time grid, time level first."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        # C order, copied only when it is not: the compiled march reads each
        # time level as one contiguous block
        v = np.ascontiguousarray(self.values, dtype=float)
        expected = (self.grid.nt + 1,) + self.grid.shape
        if v.shape != expected:
            raise ConfigError(f"field shape {v.shape} does not match grid {expected}")
        if not np.all(np.isfinite(v)):
            bad = np.where(~np.isfinite(v).reshape(v.shape[0], -1).all(axis=1))[0]
            raise ConfigError(f"nonfinite field values, first bad time level {bad[0]}")
        v.setflags(write=False)
        self.values = v

    @classmethod
    def _trusted(cls, grid: SpaceTimeGrid, values: np.ndarray) -> "SpaceTimeField":
        """Wrap a grid-shaped float array known to be finite, without a scan or copy.

        For arrays the package itself produced: solver output (the march has
        already checked it) and products of such fields with bounded weights.
        """
        values.setflags(write=False)
        f = cls.__new__(cls)
        f.grid = grid
        f.values = values
        return f

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "SpaceTimeField":
        return cls._trusted(grid, np.zeros((grid.nt + 1,) + grid.shape))

    @classmethod
    def constant(cls, grid: SpaceTimeGrid, value: float) -> "SpaceTimeField":
        return cls(grid, np.full((grid.nt + 1,) + grid.shape, float(value)))

    def time_reversed(self) -> "SpaceTimeField":
        """Read-only reversed view; shares memory with this field."""
        return SpaceTimeField._trusted(self.grid, self.values[::-1])

    def to_binary(self, path):
        """Flat float64 dump, time level outer, node index (C order) inner."""
        np.ascontiguousarray(self.values).tofile(path)

    @classmethod
    def from_binary(cls, grid: SpaceTimeGrid, path) -> "SpaceTimeField":
        v = np.fromfile(path, dtype=np.float64)
        return cls(grid, v.reshape((grid.nt + 1,) + grid.shape))

    def to_csv(self, path):
        """One row per time level, nodes flattened in C order."""
        flat = self.values.reshape(self.grid.nt + 1, -1)
        with open(path, "w") as fh:
            fh.write("# rows: time levels 0..nt; columns: nodes, C order, shape="
                     + "x".join(str(n) for n in self.grid.shape) + "\n")
            for row in flat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass
class StatePair:
    """A (position, velocity) snapshot; position vanishes on the boundary."""

    grid: SpaceTimeGrid
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = np.array(self.position, dtype=float)
        vel = np.array(self.velocity, dtype=float)
        if pos.shape != self.grid.shape or vel.shape != self.grid.shape:
            raise ConfigError("state components must match the spatial grid shape")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ConfigError("nonfinite state values")
        scale = 1.0 + float(np.max(np.abs(pos)))
        if _boundary_max(pos, self.grid.dim) > 1e-9 * scale:
            raise ConfigError("position does not vanish on the boundary")
        _zero_boundary(pos, self.grid.dim)
        _zero_boundary(vel, self.grid.dim)
        pos.setflags(write=False)
        vel.setflags(write=False)
        self.position = pos
        self.velocity = vel

    @classmethod
    def _trusted(cls, grid: SpaceTimeGrid, position: np.ndarray,
                 velocity: np.ndarray) -> "StatePair":
        """Wrap finite grid-shaped arrays that vanish on the boundary, without checks."""
        position.setflags(write=False)
        velocity.setflags(write=False)
        s = cls.__new__(cls)
        s.grid = grid
        s.position = position
        s.velocity = velocity
        return s

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "StatePair":
        return cls._trusted(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def __add__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.grid, self.position + other.position,
                         self.velocity + other.velocity)

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.grid, self.position - other.position,
                         self.velocity - other.velocity)

    def scaled(self, a: float) -> "StatePair":
        return StatePair(self.grid, a * self.position, a * self.velocity)

    def is_zero(self, tol: float = 0.0) -> bool:
        return float(np.max(np.abs(self.position))) <= tol and \
            float(np.max(np.abs(self.velocity))) <= tol


def _boundary_max(a, dim):
    return max(float(np.max(np.abs(np.moveaxis(a, ax, 0)[[0, -1]]))) for ax in range(dim))


def _zero_boundary(a, dim):
    for ax in range(dim):
        edges = np.moveaxis(a, ax, 0)       # a view: the writes land in a
        edges[0] = edges[-1] = 0.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _root_sum_powers(sum_powers, values, root=math.sqrt) -> float:
    """root(sum_powers(values)) for sum_powers a weighted sum of the p-th
    powers of |values| (or their maximum over time levels) and root the
    p-th root, by default p = 2, as a Python float.

    A sum that is not well inside float64's normal range, [2^-900, 2^900],
    may have underflowed or overflowed (squared, values below about 1e-154
    read 0, above about 1e154 read inf), so it is summed again over values
    scaled by the power of two 2^e of their maximum and the root scaled
    back by 2^e.  A sum inside the range keeps its bits and costs no
    second pass.
    """
    with np.errstate(over="ignore"):
        s = sum_powers(values)
    if 2.0 ** -900 <= s <= 2.0 ** 900:
        return float(root(s))
    top = float(np.max(np.abs(values)))
    if top == 0.0 or not math.isfinite(top):       # no scale to take
        return float(root(s))
    e = math.frexp(top)[1]
    return math.ldexp(float(root(sum_powers(np.ldexp(values, -e)))), e)


def _pair_norm(a: float, b: float) -> float:
    """sqrt(a^2 + b^2) for two norms: summed in float64 where the larger
    square is well inside the normal range (a smaller square that
    underflows is below its rounding), by math.hypot, which scales, where
    it is not."""
    if 2.0 ** -450 <= max(a, b) <= 2.0 ** 450:
        return math.sqrt(a ** 2 + b ** 2)
    return math.hypot(a, b)


def space_l2(grid: SpaceTimeGrid, values: np.ndarray) -> float:
    w = _space_weights(grid)
    return _root_sum_powers(lambda v: float(np.sum(w * v * v)), values)


def l2_qt(f: SpaceTimeField, region=None) -> float:
    """L^2 norm over omega x (0, T); full Q_T when region is None."""
    chi = region.weights if region is not None else 1.0
    w = _space_weights(f.grid) * chi
    tw = _time_weights(f.grid)
    axes = tuple(range(1, f.values.ndim))
    return _root_sum_powers(lambda v: float(np.sum(tw * np.sum(w * v * v, axis=axes))),
                            f.values)


def linf_lp(f: SpaceTimeField, p: float) -> float:
    """max over time of the spatial L^p norm."""
    w = _space_weights(f.grid)
    axes = tuple(range(1, f.values.ndim))
    return _root_sum_powers(lambda v: np.max(np.sum(w * np.abs(v) ** p, axis=axes)),
                            f.values, lambda s: s ** (1.0 / p))


def linf_l1(f: SpaceTimeField) -> float:
    return linf_lp(f, 1.0)


def h10_norm(grid: SpaceTimeGrid, values: np.ndarray) -> float:
    mu = eigenvalues(grid)
    return _root_sum_powers(lambda c: float(np.sum(mu * c * c)),
                            sine_coefficients(grid, values))


def hminus1_norm(grid: SpaceTimeGrid, values: np.ndarray) -> float:
    mu = eigenvalues(grid)
    return _root_sum_powers(lambda c: float(np.sum(c * c / mu)),
                            sine_coefficients(grid, values))


def v_norm(state: StatePair) -> float:
    """Norm of H^1_0 x L^2."""
    return _pair_norm(h10_norm(state.grid, state.position),
                      space_l2(state.grid, state.velocity))


def h_norm(state: StatePair) -> float:
    """Norm of L^2 x H^-1."""
    return _pair_norm(space_l2(state.grid, state.position),
                      hminus1_norm(state.grid, state.velocity))


def norms(obj, region=None, p: float | None = None) -> dict:
    """Norm summary for a field or a state pair."""
    if isinstance(obj, StatePair):
        return {"V_norm": v_norm(obj), "H_norm": h_norm(obj)}
    if isinstance(obj, SpaceTimeField):
        if p is None:
            p = obj.grid.dim + 1
        return {
            "L2_QT": l2_qt(obj),
            "L2_qT": l2_qt(obj, region) if region is not None else None,
            "Linf_L1": linf_l1(obj),
            "Linf_Lp": linf_lp(obj, p),
        }
    raise TypeError(f"no norms defined for {type(obj)!r}")


def velocity_levels(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Second-order time derivative of a field at every level (for logging)."""
    dt = grid.dt
    v = np.empty_like(values)
    v[1:-1] = (values[2:] - values[:-2]) / (2 * dt)
    v[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dt)
    v[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dt)
    return v


def linf_v(f: SpaceTimeField) -> float:
    """max over time of the V-norm of (y, dy/dt)."""
    grid = f.grid
    levels = grid.nt + 1
    cp = sine_coefficients(grid, f.values).reshape(levels, -1)
    cv = sine_coefficients(grid, velocity_levels(grid, f.values)).reshape(levels, -1)
    mu = eigenvalues(grid).ravel()
    # c holds (cp, cv), scaled by one power of two where the sum is out of range
    return _root_sum_powers(
        lambda c: float(np.max(np.sum(mu * c[0] * c[0], axis=1) + np.sum(c[1] * c[1], axis=1))),
        (cp, cv))
