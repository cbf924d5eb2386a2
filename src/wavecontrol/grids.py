"""Space-time grids, control regions and the geometric control condition.

The domain is an interval (0, L) or an axis-aligned rectangle
(0, Lx) x (0, Ly) with homogeneous Dirichlet boundary, discretized by
uniformly spaced nodes (boundary nodes included).  Time is discretized
with nt uniform steps over [0, T]; the explicit scheme requires
dt <= CFL_FACTOR * min(dx) / sqrt(d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, real_number, whole_number

SIDES_2D = ("left", "right", "bottom", "top")   # low and high end of axis 0, then of axis 1

CFL_FACTOR = 0.95                               # margin below the leapfrog stability limit


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on Omega x (0, T)."""

    lengths: tuple          # (L,) or (Lx, Ly)
    shape: tuple            # nodes per axis, boundary included
    T: float
    nt: int

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(real_number("grid lengths", L)
                                                  for L in self.lengths))
        object.__setattr__(self, "shape", tuple(whole_number("grid nodes", n)
                                                for n in self.shape))
        object.__setattr__(self, "T", real_number("grid T", self.T))
        object.__setattr__(self, "nt", whole_number("grid nt", self.nt))
        if len(self.lengths) not in (1, 2) or len(self.lengths) != len(self.shape):
            raise ConfigError("grid must be 1D or 2D with one node count per axis")
        if not all(L > 0 for L in self.lengths):
            raise ConfigError("domain lengths must be positive")
        if any(n < 3 for n in self.shape):
            raise ConfigError("need at least 3 nodes per axis")
        if not self.T > 0:
            raise ConfigError("time horizon T must be positive")
        if self.nt < 2:
            raise ConfigError("need at least 2 time steps")
        for name, h in (("dt", self.dt), ("min(dx)", min(self.dx))):
            if not np.finfo(float).tiny <= h * h < math.inf:    # the stencils divide by it
                raise ConfigError(f"{name}^2 = {h * h:.3g} is not a normal float64 number")
        dt_max = CFL_FACTOR * min(self.dx) / math.sqrt(self.dim)
        if self.dt > dt_max * (1 + 1e-12):
            raise ConfigError(f"CFL violated: dt={self.dt:.3e} exceeds "
                              f"{CFL_FACTOR:.2f}*dx/sqrt(d)={dt_max:.3e}")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def dx(self) -> tuple:
        return tuple(L / (n - 1) for L, n in zip(self.lengths, self.shape))

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def interior_shape(self) -> tuple:
        return tuple(n - 2 for n in self.shape)

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, self.lengths[axis], self.shape[axis])

    def meshgrid(self):
        """Node coordinates, one array per axis, shaped like the spatial grid."""
        return tuple(np.meshgrid(*(self.axis_nodes(a) for a in range(self.dim)), indexing="ij"))

    def time_levels(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


@dataclass(frozen=True, eq=False)      # == is identity: the weights are an array
class ControlRegion:
    """Control support omega and its indicator chi_omega at the nodes: the
    weights are 0 or 1, and `interval_region`, `rectangle_region` and
    `sides_region` form them from one indicator per axis.

    `kind` and `params` keep the geometric description so the geometric
    control condition can be checked against declared geometry rather
    than inferred from node weights: kind "box" has per-axis
    `bounds` ((lo, hi), ...), kind "sides" has `sides` and `eps`.
    """

    grid: SpaceTimeGrid
    kind: str
    params: dict
    weights: np.ndarray

    def __post_init__(self):
        # a private C-contiguous float64 copy: the compiled march reads it
        # by address, and freezing it leaves the caller's array writeable
        w = np.array(self.weights, dtype=np.float64, order="C")
        if w.shape != self.grid.shape:
            raise ConfigError("region weights must match the spatial grid shape")
        if not np.all((w == 0.0) | (w == 1.0)):     # NaN and inf fail too
            raise ConfigError(f"{self.kind} region {self.params} has weights other than 0 and 1")
        interior = w[tuple(slice(1, -1) for _ in range(self.grid.dim))]
        if not np.any(interior == 1.0):
            raise ConfigError("region has empty interior: no interior node with weight 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def check_same_grid(grid: SpaceTimeGrid, **parts) -> None:
    """Raise ConfigError naming the first part (a field, state or region;
    None is skipped) that is defined on another grid."""
    for name, part in parts.items():
        if part is not None and part.grid != grid:
            raise ConfigError(f"{name} is defined on a different grid")


def _box_region(grid: SpaceTimeGrid, bounds) -> ControlRegion:
    """The open box of the per-axis bounds ((lo, hi), ...), floats."""
    axes = [grid.axis_nodes(a) for a in range(grid.dim)]
    inside = [(x > lo) & (x < hi) for x, (lo, hi) in zip(axes, bounds)]
    return ControlRegion(grid, "box", {"bounds": bounds}, reduce(np.logical_and.outer, inside))


def interval_region(grid: SpaceTimeGrid, a: float, b: float) -> ControlRegion:
    """omega = (a, b) on a 1D grid."""
    if grid.dim != 1:
        raise ConfigError("interval_region requires a 1D grid")
    a, b = real_number("region a", a), real_number("region b", b)
    L = grid.lengths[0]
    if not (0.0 <= a < b <= L):
        raise ConfigError(f"interval ({a}, {b}) is not a subinterval of (0, {L})")
    return _box_region(grid, ((a, b),))


def rectangle_region(grid: SpaceTimeGrid, x0: float, x1: float, y0: float,
                     y1: float) -> ControlRegion:
    """Axis-aligned sub-rectangle (x0, x1) x (y0, y1) on a 2D grid."""
    if grid.dim != 2:
        raise ConfigError("rectangle_region requires a 2D grid")
    x0, x1, y0, y1 = (real_number(f"region {name}", v) for name, v in
                      (("x0", x0), ("x1", x1), ("y0", y0), ("y1", y1)))
    Lx, Ly = grid.lengths
    if not (0.0 <= x0 < x1 <= Lx and 0.0 <= y0 < y1 <= Ly):
        raise ConfigError("sub-rectangle must be contained in the domain")
    return _box_region(grid, ((x0, x1), (y0, y1)))


def sides_region(grid: SpaceTimeGrid, sides, eps: float) -> ControlRegion:
    """The nodes within distance eps (strictly) of a selected rectangle side.

    Each axis has the indicator of its nodes near a selected side at one of
    its ends (all 0 when neither end is selected); a node is in omega when
    it is near on either axis: 1 - (1 - chi_x)(1 - chi_y).
    """
    if grid.dim != 2:
        raise ConfigError("sides_region requires a 2D grid")
    sides = tuple(sides)
    for s in sides:
        if s not in SIDES_2D:
            raise ConfigError(f"unknown side {s!r}; expected one of {SIDES_2D}")
    if not sides:
        raise ConfigError("sides_region needs at least one side")
    eps = real_number("region eps", eps)
    if eps <= 0:
        raise ConfigError("eps must be positive")
    near = [np.zeros(n, dtype=bool) for n in grid.shape]
    for s in sides:
        axis, high = divmod(SIDES_2D.index(s), 2)
        x = grid.axis_nodes(axis)
        near[axis] |= (grid.lengths[axis] - x if high else x) < eps
    return ControlRegion(grid, "sides", {"sides": sides, "eps": eps},
                         np.logical_or.outer(*near))


@dataclass(frozen=True)
class GeometryReport:
    holds: bool
    T_min: float
    gamma0: tuple      # boundary parts seen from x0, as side names
    covered: bool      # region covers a neighborhood of gamma0
    time_ok: bool


def check_geometric_condition(grid: SpaceTimeGrid, region: ControlRegion, x0,
                              T: float | None = None) -> GeometryReport:
    """Check the multiplier geometric condition for an observation point x0.

    Gamma_0 is the part of the boundary where (x - x0) . nu > 0; the
    condition holds when T > 2 max_{x in closure(Omega)} |x - x0| and the
    region covers a neighborhood of Gamma_0 inside Omega.  x0 must lie
    strictly outside the closed domain.
    """
    T = grid.T if T is None else real_number("T", T)
    point = np.asarray(x0, dtype=object).ravel()
    if point.size != grid.dim:
        raise ConfigError(f"x0 must have {grid.dim} coordinate(s)")
    x0 = tuple(real_number("x0", c) for c in point)
    if all(0.0 <= c <= L for c, L in zip(x0, grid.lengths)):
        raise ConfigError("x0 must lie strictly outside the closed domain")
    gamma0 = []
    for axis, (c, L) in enumerate(zip(x0, grid.lengths)):
        if c > 0:          # nu = -e_axis on the low side
            gamma0.append(SIDES_2D[2 * axis])
        if L - c > 0:      # nu = +e_axis on the high side
            gamma0.append(SIDES_2D[2 * axis + 1])
    corners = itertools.product(*((0.0, L) for L in grid.lengths))
    T_min = 2.0 * max(math.dist(corner, x0) for corner in corners)
    covered = _covers(region, gamma0, grid.lengths)
    time_ok = T > T_min
    return GeometryReport(holds=bool(time_ok and covered), T_min=float(T_min),
                          gamma0=tuple(gamma0), covered=bool(covered), time_ok=bool(time_ok))


def _covers(region, gamma0, lengths, tol=1e-12):
    """A sides region must name every side of gamma0; a box must reach each
    such side and span the domain along every other axis."""
    if region.kind == "sides":
        return all(s in region.params["sides"] for s in gamma0)
    if region.kind != "box":
        return False
    bounds = region.params["bounds"]

    def reaches(axis, high):
        lo, hi = bounds[axis]
        return hi >= lengths[axis] - tol if high else lo <= tol

    for s in gamma0:
        axis, high = divmod(SIDES_2D.index(s), 2)
        spans = all(reaches(other, 0) and reaches(other, 1)
                    for other in range(len(lengths)) if other != axis)
        if not (reaches(axis, high) and spans):
            return False
    return True
