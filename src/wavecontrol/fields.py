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

`linf_v`, the max over time levels n of S_n = sum mu_k cp_k^2 + sum cv_k^2
(cp, cv the sine coefficients of y and dy/dt at level n), transforms only
the levels that can hold the max.  It first brackets every S_n,
lo_n <= S_n <= hi_n, in O(nodes) from the interior values alone, with zero
Dirichlet values beyond them, as `sine_coefficients` reads them
(`_level_bracket`):

- the velocity part is cell * sum v^2 (Parseval);
- per axis of spacing h, with lambda_k = (4 / h^2) sin^2 theta_k the
  eigenvalues of the second difference, theta_k = k pi h / (2 L) in
  (0, pi/2) and mu_k = lambda_k (theta_k / sin theta_k)^2, the H^1_0 part
  lies between the discrete Dirichlet energy E_h = sum lambda_k c_k^2 =
  cell * sum (first differences / h)^2 and E_h + (pi^2/4 - 1) (h^2/4)
  sum lambda_k^2 c_k^2, that sum being cell * sum (second differences /
  h^2)^2.  For 0 <= (theta / sin theta)^2 - 1 <= (pi^2/4 - 1) sin^2 theta
  on (0, pi/2], with equality at pi/2: (theta^2 - sin^2 theta) / sin^4 theta
  rises from 1/3 to pi^2/4 - 1 there.

Only the levels with hi_n >= (1 - margin) max_m lo_m are transformed, and
the max of their sums, each formed as on every level, is the max over all
levels, bit for bit.  The margin is 4 (eps_S + eps_b), from a stated
rounding bound: each axis of a sine transform may err by 2^-44 in the
relative 2-norm, some 500 units of roundoff, against the O(u log n) of an
FFT (Bluestein's for a prime length included) and about 3 units measured
at the committed lengths.  A coefficient error of relative size e = d 2^-44
(d axes) moves sum mu_k c_k^2 by at most (2 r e + r^2 e^2) of itself, r =
sqrt(mu_max / mu_min), and eps_b = (nodes + 32) 2^-53 bounds the rounding
of any per-level sum of squares and of the bracket itself, so eps_S =
2 r e + r^2 e^2 + eps_b bounds the relative error of a computed S_n.
Where the largest lo or hi is outside [2^-900, 2^900], or the max over
the levels kept is, every level is transformed and the sum is rescaled
where needed (`_root_sum_powers`).
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
    def zeros(cls, grid: SpaceTimeGrid) -> "StatePair":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    def __add__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.grid, self.position + other.position,
                         self.velocity + other.velocity)

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.grid, self.position - other.position,
                         self.velocity - other.velocity)

    def scaled(self, a: float) -> "StatePair":
        return StatePair(self.grid, a * self.position, a * self.velocity)

    def is_zero(self) -> bool:
        return not (np.any(self.position) or np.any(self.velocity))


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


def l2_qt(f: SpaceTimeField) -> float:
    """L^2 norm over Q_T = Omega x (0, T)."""
    w = _space_weights(f.grid)
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


def velocity_levels(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Second-order time derivative of a field at every level (for logging)."""
    dt = grid.dt
    v = np.empty_like(values)
    mid = v[1:-1]                       # in place: no field-sized temporary
    np.subtract(values[2:], values[:-2], out=mid)
    mid /= 2 * dt
    v[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dt)
    v[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dt)
    return v


# the relative 2-norm error allowed to one axis of a sine transform
_TRANSFORM_ERROR = 2.0 ** -44
# (pi^2/4 - 1)/4: with h^2 this weights the second differences' sum in hi
_SECOND_DIFFERENCE_WEIGHT = (math.pi ** 2 / 4 - 1) / 4
# values per block of levels the bracket works on: its three buffers take
# 768 KB, inside a 2 MiB L2
_BRACKET_BLOCK = 1 << 15


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """Per leading index (time level), the sum of the squares of a."""
    axes = "nxy"[:a.ndim]
    return np.einsum(f"{axes},{axes}->n", a, a)


def _level_bracket(grid: SpaceTimeGrid, values: np.ndarray, velocity: np.ndarray):
    """(lo, hi) with lo_n <= S_n <= hi_n in exact arithmetic for every time
    level n, S_n = |y_n|_{H^1_0}^2 + |v_n|_{L^2}^2 as `linf_v` sums it, from
    the interior values of y and v (module docstring).  An overflow reads
    inf, which `linf_v` takes as out of range.

    The levels are taken in blocks of about _BRACKET_BLOCK values, copied
    flat in C order into z with their boundary set to 0.  Along an axis of
    stride st, d[k] = z[k + st] - z[k] is a first difference of y_n or 0,
    and d[k - st] - d[k] at an interior node k is its second difference,
    formed from the rounded first differences, so that its rounding error
    is relative to them, not to y.  Every pass runs over contiguous memory
    that stays in cache.
    """
    cell = math.prod(grid.dx)
    levels = len(values)
    block = max(1, _BRACKET_BLOCK // math.prod(grid.shape))
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    z_block = np.empty((min(block, levels),) + grid.shape)
    d_block, s_block = np.empty(z_block.size), np.empty(z_block.size)
    with np.errstate(over="ignore"):
        lo = cell * _sum_squares(velocity[interior])
        extra = np.zeros_like(lo)
        for start in range(0, levels, block):
            at = slice(start, min(start + block, levels))
            z = z_block[:at.stop - start]
            z[...] = values[at]
            for axis in range(1, grid.dim + 1):
                edges = np.moveaxis(z, axis, 0)     # a view: the writes land in z
                edges[0] = edges[-1] = 0.0
            flat, d, s = z.reshape(-1), d_block[:z.size], s_block[:z.size]
            for axis, h in enumerate(grid.dx):
                st = math.prod(grid.shape[axis + 1:])
                np.subtract(flat[st:], flat[:-st], out=d[:-st])
                d[-st:] = 0.0
                lo[at] += (cell / h ** 2) * _sum_squares(d.reshape(len(z), -1))
                np.subtract(d[:-st], d[st:], out=s[st:])
                second = _sum_squares(s.reshape(z.shape)[interior])
                extra[at] += (_SECOND_DIFFERENCE_WEIGHT * cell / h ** 2) * second
        return lo, lo + extra


def _bracket_floor(grid: SpaceTimeGrid) -> float:
    """1 - margin: a level whose hi is below this times the largest lo
    cannot hold the max of the computed per-level sums (module docstring)."""
    mu = eigenvalues(grid)
    r_e = math.sqrt(float(mu.max()) / float(mu.min())) * grid.dim * _TRANSFORM_ERROR
    eps_b = (math.prod(grid.shape) + 32) * 2.0 ** -53
    return 1.0 - 4.0 * ((2 * r_e + r_e * r_e + eps_b) + eps_b)


def linf_v(f: SpaceTimeField) -> float:
    """max over time of the V-norm of (y, dy/dt).

    Only the levels whose bracket [lo_n, hi_n] reaches (1 - margin) times
    the largest lo are transformed (module docstring); their max is the
    max of the per-level sums over all levels, with the same bits.  Where
    a bracket or that max leaves [2^-900, 2^900], every level is
    transformed and the sum rescaled where needed (`_root_sum_powers`).
    """
    grid = f.grid
    vel = velocity_levels(grid, f.values)
    mu = eigenvalues(grid).ravel()

    def coefficients(rows):
        # (cp, cv) of the levels `rows`, one row per level
        return tuple(c.reshape(len(c), -1)
                     for c in (sine_coefficients(grid, a[rows]) for a in (f.values, vel)))

    def max_level_sum(c):
        return float(np.max(np.sum(mu * c[0] * c[0], axis=1) + np.sum(c[1] * c[1], axis=1)))

    lo, hi = _level_bracket(grid, f.values, vel)
    top = float(np.max(lo))
    if 2.0 ** -900 <= top and float(np.max(hi)) <= 2.0 ** 900:
        s = max_level_sum(coefficients(np.flatnonzero(hi >= top * _bracket_floor(grid))))
        if 2.0 ** -900 <= s <= 2.0 ** 900:
            return math.sqrt(s)
    # c holds (cp, cv), scaled by one power of two where the sum is out of range
    return _root_sum_powers(max_level_sum, coefficients(slice(None)))
