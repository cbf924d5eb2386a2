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
from .fields import SpaceTimeField, StatePair, _embed
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
    _march(grid, y, init.position, init.velocity, A, S)
    return SpaceTimeField._trusted(grid, y)


def _march(grid, y, position, velocity, A, S):
    """Fill the trajectory buffer y from the data (position, velocity) at t=0.

    No step writes the boundary nodes of levels 1..nt, so y must hold zeros
    there.  A and S are the potential and source arrays (or None), shaped
    as y; a field in reversed time, such as the backward march's `A[::-1]`,
    is read as it is.  Raises BlowupError at the first nonfinite level.

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
        (_march_1d if grid.dim == 1 else _march_2d)(grid, y, A, S)
    else:
        level = _march_compiled(lib, grid, y, A, S)
        if level:
            raise BlowupError(level)
    # no rescan: the march raised on any nonfinite level, since a nonfinite
    # node stays nonfinite through y[nt], which is always checked


def _march_compiled(lib, grid, y, A, S):
    """Levels 2..nt of y by the compiled kernel; returns the first
    nonfinite level, 0 when there is none."""
    if y.dtype != np.float64 or not y.flags.c_contiguous or y.shape != (grid.nt + 1,) + grid.shape:
        raise ValueError(f"march buffer must be C-contiguous float64 of shape "
                         f"{(grid.nt + 1,) + grid.shape}")
    dt2, cs, k0 = _coefficients(grid)
    march = lib.march_1d if grid.dim == 1 else lib.march_2d
    return march(y.ctypes.data, grid.nt, *grid.shape, *cs, k0, dt2,
                 *_level_args(grid, A), *_level_args(grid, S))


def _level_args(grid, values):
    """(address of level 0, level stride in elements) of a field array that
    the kernel reads (the march's potential or source, the line search's
    y, Y1 and r), (None, 0) without one.

    Checks that the kernel reads it as it reads y: float64, of y's shape,
    each level C-contiguous, levels a whole number of elements apart.  The
    stride may be negative (a field in reversed time).
    """
    if values is None:
        return None, 0
    shape = (grid.nt + 1,) + grid.shape
    if values.dtype != np.float64 or values.shape != shape:
        raise ValueError(f"kernel fields must be float64 of shape {shape}")
    if not values[0].flags.c_contiguous or values.strides[0] % values.itemsize:
        raise ValueError("kernel fields must hold C-contiguous levels, "
                         "a whole number of elements apart")
    return values.ctypes.data, values.strides[0] // values.itemsize


def _coefficients(grid):
    """dt^2, the per-axis dt^2/dx^2 and the centre weight 2 - 2 sum of them,
    shared by both marches so that they round alike."""
    dt2 = grid.dt * grid.dt
    cs = tuple(dt2 / h ** 2 for h in grid.dx)
    k0 = 2.0
    for c in cs:
        k0 = k0 - 2.0 * c
    return dt2, cs, k0


def _level_rows(values, lo, hi):
    """Per-level views of the flat node range [lo, hi) of an array shaped
    as the trajectory (None for None), built once per march so that its
    loop creates none.  They write through to y, whose levels are
    C-contiguous."""
    if values is None:
        return None
    return list(values.reshape(len(values), -1)[:, lo:hi])


_CHECK_STRIDE = 32


def _blowup_scan(y, lo, hi):
    """Locate the first nonfinite level in (lo, hi]."""
    for n in range(lo, hi + 1):
        if not np.all(np.isfinite(y[n])):
            raise BlowupError(n)
    raise BlowupError(hi)


def _march_1d(grid, y, A, S):
    # Per node the update is ((((k0 y + c yR) + c yL) - y_prev) - (dt2 A) y) + dt2 S,
    # evaluated left to right; that order is part of the output contract
    # (byte-identical results), so only the buffers may change, not the sums.
    # dt2 A[n] and dt2 S[n] are formed per step in one row-sized buffer.
    dt2, (c,), k0 = _coefficients(grid)
    nt, nx = grid.nt, grid.shape[0]
    mul, add, sub = np.multiply, np.add, np.subtract
    rows = list(y)
    inner, a, s = (_level_rows(v, 1, nx - 1) for v in (y, A, S))
    cy = np.empty(nx)
    cy_r, cy_l = cy[2:], cy[:-2]
    tmp = np.empty(nx - 2)
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
            if a is not None:
                mul(a[n], dt2, out=tmp)
                mul(tmp, core, out=tmp)
                sub(out, tmp, out=out)
            if s is not None:
                mul(s[n], dt2, out=tmp)
                add(out, tmp, out=out)
            if (n + 1) % _CHECK_STRIDE == 0 and not np.all(np.isfinite(out)):
                _blowup_scan(y, n + 2 - _CHECK_STRIDE, n + 1)
    if not np.all(np.isfinite(y[nt])):
        _blowup_scan(y, max(1, nt + 1 - _CHECK_STRIDE), nt)


def _march_2d(grid, y, A, S):
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
    nx, ny = grid.shape
    lo, hi = ny + 1, (nx - 1) * ny - 1
    mul, add, sub = np.multiply, np.add, np.subtract
    edges = list(y[:, 1:-1, ::ny - 1])
    core, xp, xm, yp, ym = (_level_rows(y, lo + d, hi + d) for d in (0, ny, -ny, 1, -1))
    a, s = _level_rows(A, lo, hi), _level_rows(S, lo, hi)
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
            if a is not None:
                mul(a[n], dt2, out=tmp)
                mul(tmp, cur, out=tmp)
                sub(out, tmp, out=out)
            if s is not None:
                mul(s[n], dt2, out=tmp)
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
    return StatePair(grid, y.values[-1].copy(), _embed(grid, v))


def initial_state(grid: SpaceTimeGrid, y: SpaceTimeField,
                  potential: SpaceTimeField | None = None,
                  source: SpaceTimeField | None = None) -> StatePair:
    """Scheme-exact (position, velocity) at t=0; recovers the init data exactly."""
    A = potential.values if potential is not None else None
    S = source.values if source is not None else None
    v = ((_interior(grid, y.values[1]) - _interior(grid, y.values[0])) / grid.dt
         - 0.5 * grid.dt * _accel(grid, y.values[0], A, S, 0))
    return StatePair(grid, y.values[0].copy(), _embed(grid, v))


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
