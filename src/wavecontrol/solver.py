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


def _accel(grid, level, A, S, n, w=None):
    """Lap_h y - A y + S w at one time level, interior nodes (w None: S)."""
    acc = laplacian_interior(grid, level)
    if A is not None:
        acc = acc - _interior(grid, A[n]) * _interior(grid, level)
    if S is not None:
        src = _interior(grid, S[n])
        if w is not None:
            src = src * _interior(grid, w)
        acc = acc + src
    return acc


def _terminal_velocity(grid, y, A, S, w=None):
    """Scheme-exact velocity at t=T of the trajectory y, interior nodes."""
    return ((_interior(grid, y[-1]) - _interior(grid, y[-2])) / grid.dt
            + 0.5 * grid.dt * _accel(grid, y[-1], A, S, grid.nt, w))


def solve_forward(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                  source: SpaceTimeField | None, init: StatePair) -> SpaceTimeField:
    """March the leapfrog scheme from t=0; raises BlowupError on nonfinite values."""
    check_same_grid(grid, potential=potential, source=source, init=init)
    A = potential.values if potential is not None else None
    S = source.values if source is not None else None
    y = np.zeros((grid.nt + 1,) + grid.shape)
    _march(grid, y, init.position, init.velocity, A, S)
    return SpaceTimeField._trusted(grid, y)


def _march(grid, y, position, velocity, A, S, w=None):
    """Fill the trajectory buffer y from the data (position, velocity) at t=0.

    No step writes the boundary nodes of levels 1..nt, so y must hold zeros
    there.  A and S are the potential and source arrays (or None), shaped
    as y; a field in reversed time, such as the backward march's `A[::-1]`,
    is read as it is.  w, a spatial array or None, weights the source: the
    march is driven by S w, formed node by node as it steps, with the bits
    of a march over the product field, so the Gramian's forward march reads
    chi phi from the backward trajectory without forming it.  Raises
    BlowupError at the first nonfinite level.

    `_leapfrog.march` steps levels 2..nt without looking for a blow-up: a
    nonfinite node stays nonfinite through y[nt] (each step multiplies it
    by the centre weight k0, and any finite k0 times inf or nan is inf or
    nan), so the one check of y[nt] here finds every nonfinite level.
    """
    dt = grid.dt
    y[0] = position
    # overflow is reported as BlowupError, not raised by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        y[(1,) + (slice(1, -1),) * grid.dim] = (
            _interior(grid, position) + dt * _interior(grid, velocity)
            + 0.5 * dt * dt * _accel(grid, y[0], A, S, 0, w))
        _leapfrog.march(grid, y, A, S, w)
    if not np.isfinite(y[-1]).all():
        finite = np.isfinite(y[1:].reshape(grid.nt, -1)).all(axis=1)
        raise BlowupError(1 + int(np.argmin(finite)))


def solve_backward(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                   terminal: StatePair) -> SpaceTimeField:
    """Homogeneous adjoint solve backward from terminal data at t=T.

    Equals the time reversal of a forward solve with time-reversed
    potential and velocity sign flipped (the scheme is reversible).
    """
    check_same_grid(grid, terminal=terminal)
    rev_potential = potential.time_reversed() if potential is not None else None
    rev_init = StatePair(grid, terminal.position, -terminal.velocity)
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
