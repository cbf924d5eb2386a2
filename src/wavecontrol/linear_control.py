"""Minimal-norm distributed controls for the linear wave equation.

The control steering (z0, z1) to a target under

    z_tt - Lap z + A z = u chi_omega + B

is found by conjugate gradient on the control Gramian.  Seeds (p, q)
live in H = L^2 x H^-1 and are handled in normalized sine-basis
coordinates rho = (p_hat, q_hat / sqrt(mu)) so that plain dot products
are H inner products.  In these coordinates the Gramian map

    rho -> dualize( terminal observation of z[u = chi * phi_rho] )

is symmetric positive semidefinite to machine precision (exact discrete
transposition of the leapfrog scheme), and the Euclidean norm of the CG
residual equals the V-norm of the terminal defect when eps_reg = 0.

Discrete controls are active on time levels 0..nt-1 with quadrature
weights (1/2, 1, ..., 1); the final level carries no weight and is
fixed to zero, which makes the weighted norm identical to the standard
trapezoidal L^2(q_T) norm of the returned control.

Tikhonov regularization (G + eps_reg I) tames the non-uniformly
observable high-frequency modes at the price of an O(eps) terminal
defect; eps_reg defaults to min(dx)^2.

CG may stop at that floor instead of at cg_tol (`solve_null_control`
with at_floor=True).  The terminal gap of the k-th iterate is
d_k = c - G rho_k = r_k + eps rho_k, and at the exact solution
d* = eps rho*.  CG started from zero on an SPD system has |rho_k|
increasing toward |rho*| (Hestenes & Stiefel 1952, Thm 6:3), so the
stop |r_k| <= FLOOR_THETA * eps |rho_k| gives

    |d_k| <= (1 + theta) eps |rho_k| <= (1 + theta) |d*|,
    |rho_k - rho*| <= |r_k| / eps <= theta |rho_k|:

the algebraic error stays below the regularization error (Arioli,
Numer. Math. 97, 2004).  The default solve keeps the fixed cg_tol:
callers that compare controls across solves (linearity, oracle
agreement, fixed-point step sizes) need the exact solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import (SpaceTimeField, StatePair, eigenvalues, from_sine_coefficients,
                     l2_qt, linf_lp, sine_coefficients, v_norm)
from .grids import ControlRegion, SpaceTimeGrid
from .solver import solve_backward, solve_forward, terminal_state

FLOOR_THETA = 0.01      # floor stop: |r_k| <= theta * eps |rho_k|


@dataclass
class LinearControlProblem:
    grid: SpaceTimeGrid
    region: ControlRegion
    potential: SpaceTimeField | None = None
    source: SpaceTimeField | None = None
    initial: StatePair | None = None
    target: StatePair | None = None
    eps_reg: float | None = None          # None -> min(dx)^2
    cg_tol: float = 1e-8
    cg_max_iter: int = 500
    geometry_ok: bool | None = None

    def __post_init__(self):
        if self.initial is None:
            self.initial = StatePair.zeros(self.grid)
        if self.target is None:
            self.target = StatePair.zeros(self.grid)
        if self.eps_reg is not None and self.eps_reg < 0:
            raise ConfigError("eps_reg must be nonnegative")
        if self.cg_tol <= 0:
            raise ConfigError("cg_tol must be positive")

    @property
    def effective_eps(self) -> float:
        return min(self.grid.dx) ** 2 if self.eps_reg is None else float(self.eps_reg)


@dataclass
class ControlSolution:
    control: SpaceTimeField
    trajectory: SpaceTimeField
    terminal: StatePair
    defect: float                 # V-norm of terminal minus target
    control_norm: float           # L^2(q_T) norm of the control
    cg_iterations: int
    converged: bool               # CG solved the regularized system to tolerance
    residual_history: list = field(default_factory=list)
    geometry_ok: bool | None = None
    seed_coords: np.ndarray | None = None


# ---------------------------------------------------------------------------
# seed coordinates and the dual pairing
# ---------------------------------------------------------------------------

def _sqrt_mu(grid):
    return np.sqrt(eigenvalues(grid))


def seed_from_rho(grid: SpaceTimeGrid, rho: np.ndarray) -> StatePair:
    n = math.prod(grid.interior_shape)
    shape = grid.interior_shape
    p_hat = rho[:n].reshape(shape)
    q_hat = _sqrt_mu(grid) * rho[n:].reshape(shape)
    return StatePair(grid, from_sine_coefficients(grid, p_hat),
                     from_sine_coefficients(grid, q_hat))


def rho_from_seed(grid: SpaceTimeGrid, seed: StatePair) -> np.ndarray:
    p_hat = sine_coefficients(grid, seed.position)
    q_hat = sine_coefficients(grid, seed.velocity)
    return np.concatenate([p_hat.ravel(), (q_hat / _sqrt_mu(grid)).ravel()])


def dual_to_rho(grid: SpaceTimeGrid, velocity_part: np.ndarray,
                position_part: np.ndarray) -> np.ndarray:
    """Coordinates of the dual element (a, b) paired as (a,p) + (b,q)."""
    a_hat = sine_coefficients(grid, velocity_part)
    b_hat = sine_coefficients(grid, position_part)
    return np.concatenate([a_hat.ravel(), (_sqrt_mu(grid) * b_hat).ravel()])


def hum_pairing(terminal: StatePair, seed: StatePair) -> float:
    """Duality pairing <Lambda seed', seed> of a terminal observation with a seed.

    (v_T, p)_{L^2} - (z_T, q) with plain node quadrature; symmetric in
    the two adjoint seeds by the discrete Green identity.
    """
    grid = terminal.grid
    w = math.prod(grid.dx)
    return w * float(np.sum(terminal.velocity * seed.position)
                     - np.sum(terminal.position * seed.velocity))


# ---------------------------------------------------------------------------
# Gramian
# ---------------------------------------------------------------------------

def _adjoint_control(grid, potential, region, seed):
    """The control chi * phi, phi the adjoint solved backward from `seed`."""
    phi = solve_backward(grid, potential, seed)
    u = phi.values * region.weights       # new array; phi is finite, weights in [0, 1]
    u[-1] = 0.0          # final level carries no quadrature weight
    return SpaceTimeField._trusted(grid, u)


def _from_rest(grid, potential, u):
    """The state driven from rest by the control u, and its terminal state."""
    z = solve_forward(grid, potential, u, StatePair.zeros(grid))
    return z, terminal_state(grid, z, potential, u)


def gramian_apply(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                  region: ControlRegion, seed: StatePair) -> StatePair:
    """Apply the control Gramian to an adjoint seed (data of phi at t=T).

    Solves the adjoint backward from the seed, drives the state forward
    from rest with the restricted adjoint as control, and returns the
    scheme-exact terminal state; combine with `hum_pairing` to evaluate
    <Lambda s, s'> = (phi_s, phi_s')_{L^2(q_T)}.
    """
    return _from_rest(grid, potential, _adjoint_control(grid, potential, region, seed))[1]


def _gramian_rho(grid, potential, region, rho):
    seed = seed_from_rho(grid, rho)
    term = gramian_apply(grid, potential, region, seed)
    return dual_to_rho(grid, term.velocity, -term.position)


def _cg(apply_op, c, tol, max_iter, eps, floor=0.0):
    """Plain CG for (G + eps I) x = c; returns (x, iters, converged, history).

    Stops once |r_k| <= max(tol |c|, floor |x_k|); floor = 0 is the plain
    relative-residual stop.
    """
    x = np.zeros_like(c)
    nc = math.sqrt(float(c @ c))
    if nc == 0.0:
        return x, 0, True, [0.0]
    r = c.copy()
    d = r.copy()
    rs = float(r @ r)
    history = [math.sqrt(rs) / nc]
    it = 0
    converged = math.sqrt(rs) <= tol * nc
    while not converged and it < max_iter:
        Gd = apply_op(d) + eps * d
        dGd = float(d @ Gd)
        if dGd <= 0.0:
            break   # positivity lost to roundoff; keep the best iterate
        alpha = rs / dGd
        x = x + alpha * d
        r = r - alpha * Gd
        rs_new = float(r @ r)
        it += 1
        history.append(math.sqrt(rs_new) / nc)
        stop = tol * nc
        if floor:
            stop = max(stop, floor * math.sqrt(float(x @ x)))
        if math.sqrt(rs_new) <= stop:
            converged = True
        else:
            d = r + (rs_new / rs) * d
        rs = rs_new
    return x, it, converged, history


# ---------------------------------------------------------------------------
# controlled solutions
# ---------------------------------------------------------------------------

def _free_response(problem):
    """Uncontrolled solution (None when it vanishes), its terminal state and
    the coordinates c of the terminal gap to the target."""
    grid, A = problem.grid, problem.potential
    free = None
    if problem.source is not None or not problem.initial.is_zero():
        free = solve_forward(grid, A, problem.source, problem.initial)
        free_term = terminal_state(grid, free, A, problem.source)
    else:
        free_term = StatePair.zeros(grid)
    gap = problem.target - free_term
    return free, free_term, dual_to_rho(grid, gap.velocity, -gap.position)


def _controlled_solution(problem, free, free_term, u, **solver_info) -> ControlSolution:
    """Superpose the free solution and the response from rest to the control u
    (None for the zero control, which needs no solve)."""
    grid = problem.grid
    if u is None:
        u = SpaceTimeField.zeros(grid)
        w_term = StatePair.zeros(grid)
        traj_values = free.values if free is not None else np.zeros((grid.nt + 1,) + grid.shape)
    else:
        w, w_term = _from_rest(grid, problem.potential, u)
        traj_values = (free.values if free is not None else 0.0) + w.values
    terminal = free_term + w_term
    return ControlSolution(
        control=u,
        trajectory=SpaceTimeField(grid, traj_values),
        terminal=terminal,
        defect=float(v_norm(terminal - problem.target)),
        control_norm=float(l2_qt(u)),
        geometry_ok=problem.geometry_ok,
        **solver_info,
    )


def solve_null_control(problem: LinearControlProblem, at_floor: bool = False) -> ControlSolution:
    """Steer the initial state to the target; control of minimal L^2(q_T) norm.

    Reduction to a reach-from-rest problem: subtract the uncontrolled
    solution with the given data and source, then match the remaining
    terminal gap through the Gramian equation (G + eps I) rho = c.
    at_floor=True also stops CG once its residual is below FLOOR_THETA
    times the Tikhonov term, which keeps the terminal defect within a
    factor 1 + FLOOR_THETA of the exact regularized solve's (module
    docstring); `converged` then means either stop was met.
    """
    grid, region, A = problem.grid, problem.region, problem.potential
    eps = problem.effective_eps
    free, free_term, c = _free_response(problem)
    rho, iters, converged, history = _cg(lambda r: _gramian_rho(grid, A, region, r), c,
                                         problem.cg_tol, problem.cg_max_iter, eps,
                                         FLOOR_THETA * eps if at_floor else 0.0)
    u = None
    if np.any(rho != 0.0):
        u = _adjoint_control(grid, A, region, seed_from_rho(grid, rho))
    return _controlled_solution(problem, free, free_term, u, cg_iterations=iters,
                                converged=bool(converged), residual_history=history,
                                seed_coords=rho)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def _active_dofs(grid, region):
    chi = region.weights[(slice(1, -1),) * grid.dim].ravel()
    nodes = np.where(chi == 1.0)[0]
    return nodes


def _quadrature_weights(grid, n_nodes):
    w = np.full(grid.nt, grid.dt * math.prod(grid.dx))
    w[0] *= 0.5
    return np.repeat(w, n_nodes)


def _impulse_responses(problem):
    """Whitened constraint matrix Ct, quadrature sqrt_w and active nodes."""
    grid, region = problem.grid, problem.region
    if math.prod(grid.shape) * (grid.nt + 1) > 5 * 10**4:
        raise ConfigError("grid too large for the dense oracle (cap 5e4 unknowns)")
    if not region.is_sharp:
        raise ConfigError("dense oracle requires a sharp (0/1) control region")
    A = problem.potential
    nodes = _active_dofs(grid, region)
    n_nodes = nodes.size
    n_dofs = n_nodes * grid.nt
    sqrt_w = np.sqrt(_quadrature_weights(grid, n_nodes))
    n_modes = math.prod(grid.interior_shape)

    Ct = np.empty((2 * n_modes, n_dofs))
    src = np.zeros((grid.nt + 1,) + grid.shape)
    for k in range(n_dofs):
        level, j = divmod(k, n_nodes)
        src[:] = 0.0
        _scatter(grid, src, level, nodes[j], 1.0 / sqrt_w[k])
        _, term = _from_rest(grid, A, SpaceTimeField(grid, src.copy()))
        Ct[:, k] = dual_to_rho(grid, term.velocity, -term.position)
    return Ct, sqrt_w, nodes


def dense_constraint_system(problem: LinearControlProblem):
    """Assemble the whitened constraint matrix and right-hand side.

    Columns are impulse responses: one forward solve per active control
    dof (interior node in omega, time level 0..nt-1).  Returns
    (Ct, c, sqrt_w, nodes) with Ct of shape (2 * n_modes, n_dofs); the
    control in physical units is u = ut / sqrt_w scattered onto omega.
    """
    Ct, sqrt_w, nodes = _impulse_responses(problem)
    return Ct, _free_response(problem)[2], sqrt_w, nodes


def _scatter(grid, src, level, interior_flat_index, value):
    if grid.dim == 1:
        src[level, 1 + interior_flat_index] = value
    else:
        ny = grid.interior_shape[1]
        i, j = divmod(interior_flat_index, ny)
        src[level, 1 + i, 1 + j] = value


def dense_oracle_control(problem: LinearControlProblem) -> ControlSolution:
    """Ground-truth control on small grids via dense constrained least squares.

    eps_reg = 0: exact minimal-norm solution of the terminal constraint
    (LAPACK least squares); eps_reg > 0: direct solve of the same
    regularized normal equations the CG path addresses.
    """
    grid = problem.grid
    eps = problem.effective_eps
    Ct, sqrt_w, nodes = _impulse_responses(problem)
    free, free_term, c = _free_response(problem)
    if eps == 0.0:
        ut, *_ = np.linalg.lstsq(Ct, c, rcond=None)
    else:
        G = Ct @ Ct.T + eps * np.eye(Ct.shape[0])
        rho = np.linalg.solve(G, c)
        ut = Ct.T @ rho

    u_phys = ut / sqrt_w
    src = np.zeros((grid.nt + 1,) + grid.shape)
    n_nodes = nodes.size
    for k in range(ut.size):
        level, j = divmod(k, n_nodes)
        _scatter(grid, src, level, nodes[j], u_phys[k])
    return _controlled_solution(problem, free, free_term, SpaceTimeField(grid, src),
                                cg_iterations=0, converged=True, residual_history=[])


# ---------------------------------------------------------------------------
# sensitivity of the controlled solution to the potential
# ---------------------------------------------------------------------------

def potential_linf_ld(grid: SpaceTimeGrid, A: SpaceTimeField | None) -> float:
    """|A| in L^inf(0, T; L^d), the norm entering the observability constant."""
    if A is None:
        return 0.0
    return linf_lp(A, float(grid.dim))


def perturbation_gap(grid: SpaceTimeGrid, region: ControlRegion,
                     A: SpaceTimeField | None, a: SpaceTimeField,
                     B: SpaceTimeField | None, initial: StatePair,
                     C: float = 1.0, **solver_opts) -> dict:
    """Gap between null-controlled solutions for potentials A and A + a.

    Returns the measured L^inf(0,T; H^1_0) gap together with the
    monitoring bound C |a| (|B| + |data|_V) exp-factors evaluated with a
    user-supplied constant C (the continuous constant is unknown, so
    the bound is reported, not asserted).
    """
    from .fields import h10_norm

    A_pert_vals = a.values + (A.values if A is not None else 0.0)
    A_pert = SpaceTimeField(grid, A_pert_vals)
    sol_base = solve_null_control(LinearControlProblem(
        grid, region, potential=A, source=B, initial=initial, **solver_opts))
    sol_pert = solve_null_control(LinearControlProblem(
        grid, region, potential=A_pert, source=B, initial=initial, **solver_opts))
    diff = sol_base.trajectory.values - sol_pert.trajectory.values
    gap = max(h10_norm(grid, diff[n]) for n in range(grid.nt + 1))

    a_norm = linf_lp(a, float(grid.dim + 1))
    b_norm = l2_qt(B) if B is not None else 0.0
    data_norm = v_norm(initial)
    bound = (C * a_norm * (b_norm + data_norm)
             * math.exp(C * potential_linf_ld(grid, A_pert) ** 2)
             * math.exp(C * potential_linf_ld(grid, A) ** 2))
    return {"gap_norm": float(gap), "bound_rhs": float(bound),
            "base": sol_base, "perturbed": sol_pert}
