"""Explicit leapfrog solvers for the wave equation with a potential.

Scheme for y_tt - Lap y + A y = S with homogeneous Dirichlet data:

    y^{n+1} = 2 y^n - y^{n-1} + dt^2 (Lap_h y^n - A^n y^n + S^n),

second-order centered in space and time; the first step uses the
ghost-consistent update

    y^1 = y^0 + dt u1 + dt^2/2 (Lap_h y^0 - A^0 y^0 + S^0),

which keeps overall order two.  The discrete terminal velocity

    v_T(y) = (y^N - y^{N-1})/dt + dt/2 (Lap_h y^N - A^N y^N + S^N)

is the exact algebraic transpose of that initialization, so a backward
solve run as the time-reversed forward scheme pairs with the forward
solve through an exact discrete Green identity.  That identity is what
keeps the control Gramian symmetric to machine precision.
"""

from __future__ import annotations

import numpy as np

from . import _leapfrog
from .errors import BlowupError
from .fields import SpaceTimeField, StatePair
from .grids import SpaceTimeGrid, check_same_grid


def laplacian_interior(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Centered second-difference Laplacian over the trailing spatial axes, interior part.

    Leading axes (time levels) are carried along, so one call covers one
    level or a whole stack of them.
    """
    if grid.dim == 1:
        (dx,) = grid.dx
        return (values[..., 2:] - 2 * values[..., 1:-1] + values[..., :-2]) / dx**2
    dx, dy = grid.dx
    core = values[..., 1:-1, 1:-1]
    return ((values[..., 2:, 1:-1] - 2 * core + values[..., :-2, 1:-1]) / dx**2
            + (values[..., 1:-1, 2:] - 2 * core + values[..., 1:-1, :-2]) / dy**2)


def _interior(grid, a):
    """Interior nodes over the trailing spatial axes; leading axes are kept."""
    return a[(Ellipsis,) + (slice(1, -1),) * grid.dim]


def _accel(grid, level, A, S, n):
    """Lap_h y - A y + S at one time level, interior nodes."""
    acc = laplacian_interior(grid, level)
    if A is not None:
        acc = acc - _interior(grid, A[n]) * _interior(grid, level)
    if S is not None:
        acc = acc + _interior(grid, S[n])
    return acc


def _terminal_velocity(grid, y, A, S):
    """Scheme-exact velocity at t=T of the trajectory y, interior nodes."""
    return ((_interior(grid, y[-1]) - _interior(grid, y[-2])) / grid.dt
            + 0.5 * grid.dt * _accel(grid, y[-1], A, S, grid.nt))


def solve_forward(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                  source: SpaceTimeField | None, init: StatePair) -> SpaceTimeField:
    """March the leapfrog scheme from t=0; raises BlowupError on nonfinite values."""
    check_same_grid(grid, potential=potential, source=source, init=init)
    A = potential.values if potential is not None else None
    S = source.values if source is not None else None
    y = np.zeros((grid.nt + 1,) + grid.shape)
    _march(grid, y, _views(grid, y), init.position, init.velocity, A, S,
           _field_rows(grid, A), _field_rows(grid, S))
    return SpaceTimeField._trusted(grid, y)


def _march(grid, y, views, position, velocity, A, S, A_rows, S_rows):
    """Fill the trajectory buffer y from the data (position, velocity) at t=0.

    No step writes the boundary nodes of levels 1..nt, so y must hold zeros
    there.  A and S are the potential and source arrays (or None) that the
    first step reads; A_rows and S_rows are the march's rows of the same
    fields (`_field_rows`) and views those of y (`_views`).  Raises
    BlowupError at the first nonfinite level.

    Levels 2..nt are stepped by the compiled kernel (`_leapfrog.c`) when it
    loads, else by `_march_1d`/`_march_2d`; both write the same bits.
    """
    dt = grid.dt
    y[0] = position
    y[(1,) + (slice(1, -1),) * grid.dim] = (
        _interior(grid, position) + dt * _interior(grid, velocity)
        + 0.5 * dt * dt * _accel(grid, y[0], A, S, 0))
    if not np.all(np.isfinite(y[1])):
        raise BlowupError(1)
    lib = _leapfrog.LOADER.load()
    if lib is None:
        (_march_1d if grid.dim == 1 else _march_2d)(grid, y, views, A_rows, S_rows)
    else:
        level = _march_compiled(lib, grid, y, A_rows, S_rows)
        if level:
            raise BlowupError(level)
    # no rescan: the march raised on any nonfinite level, since a nonfinite
    # node stays nonfinite through y[nt], which is always checked


def _march_compiled(lib, grid, y, A_rows, S_rows):
    """Levels 2..nt of y by the compiled kernel; returns the first
    nonfinite level, 0 when there is none."""
    if y.dtype != np.float64 or not y.flags.c_contiguous or y.shape != (grid.nt + 1,) + grid.shape:
        raise ValueError(f"march buffer must be C-contiguous float64 of shape "
                         f"{(grid.nt + 1,) + grid.shape}")
    dt2, cs, k0 = _coefficients(grid)
    a, a_stride = _row_args(grid, A_rows)
    s, s_stride = _row_args(grid, S_rows)
    if grid.dim == 1:
        return lib.march_1d(y.ctypes.data, grid.nt, *grid.shape, *cs, k0,
                            a, a_stride, s, s_stride)
    return lib.march_2d(y.ctypes.data, grid.nt, *grid.shape, *cs, k0, dt2,
                        a, a_stride, s, s_stride)


def _row_args(grid, rows):
    """(base, stride) of a field's `_Rows` for the kernel, (None, 0) without
    a field; checks that the kernel reads inside them."""
    if rows is None:
        return None, 0
    lo, hi = (1, grid.shape[0] - 1) if grid.dim == 1 else _flat_range(grid)
    if len(rows) != grid.nt + 1 or rows[0].shape != (hi - lo,):
        raise ValueError(f"march rows must be {grid.nt + 1} rows of {hi - lo} nodes")
    return rows.base, rows.stride


def _coefficients(grid):
    """dt^2, the per-axis dt^2/dx^2 and the centre weight 2 - 2 sum of them,
    shared by both marches so that they round alike."""
    dt2 = grid.dt * grid.dt
    cs = tuple(dt2 / h ** 2 for h in grid.dx)
    k0 = 2.0
    for c in cs:
        k0 = k0 - 2.0 * c
    return dt2, cs, k0


def _flat_range(grid):
    """[lo, hi): the flat node indices i*ny + j that the 2D march steps."""
    nx, ny = grid.shape
    return ny + 1, (nx - 1) * ny - 1


def _views(grid, y):
    """Per-level views of the trajectory buffer y that the march steps through.

    1D: whole rows and interior rows.  2D: the j = 0, ny-1 edge nodes of the
    inner rows, then the flat range [lo, hi) and its x (+-ny) and y (+-1)
    neighbour ranges.  Built once per buffer, so the march creates none.
    """
    if grid.dim == 1:
        return list(y), list(y[:, 1:-1])
    ny = grid.shape[1]
    lo, hi = _flat_range(grid)
    flat = y.reshape(grid.nt + 1, -1)   # a view: y is C-contiguous
    return (list(y[:, 1:-1, ::ny - 1]), list(flat[:, lo:hi]),
            list(flat[:, lo + ny:hi + ny]), list(flat[:, lo - ny:hi - ny]),
            list(flat[:, lo + 1:hi + 1]), list(flat[:, lo - 1:hi - 1]))


class _Rows(list):
    """The march's per-level rows of one field: the list that the numpy
    march indexes, and for the compiled kernel the address `base` of row 0
    and the level `stride` in elements (negative for rows in reversed time).
    The rows must be C-contiguous float64 and evenly spaced in memory."""

    def __init__(self, rows):
        super().__init__(rows)
        first = rows[0]
        if first.dtype != np.float64 or first.ndim != 1 or not first.flags.c_contiguous:
            raise ValueError("march rows must be contiguous float64 vectors")
        self.base = first.ctypes.data
        self.stride = (rows[1].ctypes.data - self.base) // first.itemsize
        if rows[-1].ctypes.data != self.base + (len(rows) - 1) * self.stride * first.itemsize:
            raise ValueError("march rows must be evenly spaced")

    def reversed(self):
        return _Rows(self[::-1])


def _field_rows(grid, values):
    """Per-level rows of a potential or source array that the march reads.

    1D: dt^2 times the interior, scaled here once.  2D: views of the flat
    range, which the march scales per step, so no field is added.
    """
    if values is None:
        return None
    rows, refresh = _source_rows(grid, values)
    refresh()
    return rows


def _source_rows(grid, values):
    """The rows of `_field_rows` for a buffer that is rewritten between
    marches, and the call that brings them up to date after each rewrite:
    in 1D it scales the interior into the rows in place, 2D rows are views
    and need no update."""
    if grid.dim == 2:
        lo, hi = _flat_range(grid)
        return _Rows(values.reshape(grid.nt + 1, -1)[:, lo:hi]), lambda: None
    scaled = np.empty((grid.nt + 1, grid.shape[0] - 2))
    return _Rows(scaled), lambda: np.multiply(values[:, 1:-1], grid.dt * grid.dt, out=scaled)


_CHECK_STRIDE = 32


def _blowup_scan(y, lo, hi):
    """Locate the first nonfinite level in (lo, hi]."""
    for n in range(lo, hi + 1):
        if not np.all(np.isfinite(y[n])):
            raise BlowupError(n)
    raise BlowupError(hi)


def _march_1d(grid, y, views, dA, dS):
    # Per node the update is ((((k0 y + c yR) + c yL) - y_prev) - (dt2 A) y) + dt2 S,
    # evaluated left to right; that order is part of the output contract
    # (byte-identical results), so only the buffers may change, not the sums.
    # The loop creates no view: views and rows come prepared.
    _dt2, (c,), k0 = _coefficients(grid)
    nt = grid.nt
    mul, add, sub = np.multiply, np.add, np.subtract
    rows, inner = views
    cy = np.empty(grid.shape[0])
    cy_r, cy_l = cy[2:], cy[:-2]
    tmp = np.empty(grid.shape[0] - 2)
    # overflow is detected and reported, not raised by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nt):
            out = inner[n + 1]
            core = inner[n]
            mul(rows[n], c, out=cy)
            mul(core, k0, out=out)
            add(out, cy_r, out=out)
            add(out, cy_l, out=out)
            sub(out, inner[n - 1], out=out)
            if dA is not None:
                mul(dA[n], core, out=tmp)
                sub(out, tmp, out=out)
            if dS is not None:
                add(out, dS[n], out=out)
            if (n + 1) % _CHECK_STRIDE == 0 and not np.all(np.isfinite(out)):
                _blowup_scan(y, n + 2 - _CHECK_STRIDE, n + 1)
    if not np.all(np.isfinite(y[nt])):
        _blowup_scan(y, max(1, nt + 1 - _CHECK_STRIDE), nt)


def _march_2d(grid, y, views, Ar, Sr):
    # Per node: ((((k0 core - prev) + cx (xp + xm)) + cy (yp + ym)) - (dt2 A) core) + dt2 S,
    # in this order.  Each level is marched as one contiguous flat range
    # [lo, hi) of node indices i*ny + j, from the first interior node to the
    # last; x-neighbours sit at offsets +-ny and y-neighbours at +-1.  The
    # range also holds the j = 0 and j = ny-1 edge nodes of the inner rows:
    # the step writes junk there (their stencils wrap to the adjacent row),
    # which is reset to zero before anything reads it.  dt2 A[n] and dt2 S[n]
    # are formed per step in one range-sized buffer, so no field is added.
    dt2, (cx, cy), k0 = _coefficients(grid)
    nt = grid.nt
    lo, hi = _flat_range(grid)
    mul, add, sub = np.multiply, np.add, np.subtract
    edges, core, xp, xm, yp, ym = views
    tmp = np.empty(hi - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nt):
            out = core[n + 1]
            cur = core[n]
            mul(cur, k0, out=out)
            sub(out, core[n - 1], out=out)
            add(xp[n], xm[n], out=tmp)
            mul(tmp, cx, out=tmp)
            add(out, tmp, out=out)
            add(yp[n], ym[n], out=tmp)
            mul(tmp, cy, out=tmp)
            add(out, tmp, out=out)
            if Ar is not None:
                mul(Ar[n], dt2, out=tmp)
                mul(tmp, cur, out=tmp)
                sub(out, tmp, out=out)
            if Sr is not None:
                mul(Sr[n], dt2, out=tmp)
                add(out, tmp, out=out)
            edges[n + 1].fill(0.0)
            if (n + 1) % _CHECK_STRIDE == 0 and not np.all(np.isfinite(out)):
                _blowup_scan(y, n + 2 - _CHECK_STRIDE, n + 1)
    if not np.all(np.isfinite(y[nt])):
        _blowup_scan(y, max(1, nt + 1 - _CHECK_STRIDE), nt)


def solve_backward(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                   terminal: StatePair) -> SpaceTimeField:
    """Homogeneous adjoint solve backward from terminal data at t=T.

    Equals the time reversal of a forward solve with time-reversed
    potential and velocity sign flipped (the scheme is reversible).
    """
    check_same_grid(grid, terminal=terminal)
    rev_potential = potential.time_reversed() if potential is not None else None
    rev_init = StatePair._trusted(grid, terminal.position, -terminal.velocity)
    return solve_forward(grid, rev_potential, None, rev_init).time_reversed()


def terminal_state(grid: SpaceTimeGrid, y: SpaceTimeField,
                   potential: SpaceTimeField | None = None,
                   source: SpaceTimeField | None = None) -> StatePair:
    """Scheme-exact (position, velocity) at t=T for a forward solve output."""
    A = potential.values if potential is not None else None
    S = source.values if source is not None else None
    v = _terminal_velocity(grid, y.values, A, S)
    full_v = np.zeros(grid.shape)
    full_v[(slice(1, -1),) * grid.dim] = v
    return StatePair(grid, y.values[-1].copy(), full_v)


def initial_state(grid: SpaceTimeGrid, y: SpaceTimeField,
                  potential: SpaceTimeField | None = None,
                  source: SpaceTimeField | None = None) -> StatePair:
    """Scheme-exact (position, velocity) at t=0; recovers the init data exactly."""
    A = potential.values if potential is not None else None
    S = source.values if source is not None else None
    v = ((_interior(grid, y.values[1]) - _interior(grid, y.values[0])) / grid.dt
         - 0.5 * grid.dt * _accel(grid, y.values[0], A, S, 0))
    full_v = np.zeros(grid.shape)
    full_v[(slice(1, -1),) * grid.dim] = v
    return StatePair(grid, y.values[0].copy(), full_v)


def residual_field(y: SpaceTimeField, f: SpaceTimeField | None, g, region=None) -> SpaceTimeField:
    """Discrete y_tt - Lap y + g(y) - f chi_omega, same stencils as the solver.

    Defined on stencil-complete time levels 1..nt-1; the end levels are
    set to zero, so a forward solve of the semilinear equation driven by
    f has residual zero identically.
    """
    grid = y.grid
    dt = grid.dt
    vals = y.values
    mid = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / (dt * dt)
    mid = _interior(grid, mid) - laplacian_interior(grid, vals[1:-1])
    if g is not None:
        mid = mid + _interior(grid, g.g(vals[1:-1]))
    if f is not None:
        chi = region.weights if region is not None else 1.0
        mid = mid - _interior(grid, f.values[1:-1] * chi)
    r = np.zeros_like(vals)
    r[(slice(1, -1),) + (slice(1, -1),) * grid.dim] = mid
    return SpaceTimeField(grid, r)


def discrete_energy(grid: SpaceTimeGrid, y: SpaceTimeField) -> np.ndarray:
    """Leapfrog-conserved energy at half levels (for the A=0, source=0 solve)."""
    w = float(np.prod(grid.dx))
    vals = y.values
    dt = grid.dt
    energies = []
    for n in range(grid.nt):
        vel = (_interior(grid, vals[n + 1]) - _interior(grid, vals[n])) / dt
        kinetic = 0.5 * w * float(np.sum(vel * vel))
        cross = -0.5 * w * float(np.sum(laplacian_interior(grid, vals[n + 1])
                                        * _interior(grid, vals[n])))
        energies.append(kinetic + cross)
    return np.asarray(energies)
