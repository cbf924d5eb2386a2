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
with floor=True).  The terminal gap of an iterate rho_k is
d_k = c - G rho_k = r_k + eps rho_k, and at the exact solution
d* = eps rho*.  The stop |r_k| <= FLOOR_THETA * eps |rho_k| bounds the
algebraic error by the regularization error (Arioli, Numer. Math. 97,
2004) whatever the iterate:

    |rho_k - rho*| <= |r_k| / eps <= theta |rho_k|,
    so |rho_k| <= |rho*| / (1 - theta) and
    |d_k| <= (1 + theta) eps |rho_k| <= (1 + theta) / (1 - theta) |d*|,

a factor 1.0202 at theta = 0.01.  The bound needs no monotone |rho_k|,
so it holds for preconditioned CG, whose iterates grow in the
preconditioner's norm rather than the Euclidean one.  The solve without
the floor stop keeps the fixed cg_tol: callers that compare controls
across solves (linearity, oracle agreement, fixed-point step sizes)
need the exact solve.

How CG stops and what it is preconditioned with are separate choices.
Every solve with eps > 0, floor-stopped or exact, is preconditioned
with P = G(0) + eps I, the regularized Gramian without potential; with
eps = 0 CG runs plain.  P depends only on the grid, region and eps, so a
`LinearControlProblem` caches its P (`precond`), and every solve of one
outer iteration reads its problem's P (`least_squares.solve_linear`).
Without potential every sine mode of the box grid evolves on its own
under the leapfrog scheme, T_k(m+1) = (2 - dt^2 mu_h,k) T_k(m) - T_k(m-1)
with mu_h,k the eigenvalues of -Lap_h, so the Gramian has the closed form

    G(0) = (T W T^T) o [[M, M], [M, M]]

(`_free_wave_block` of every mode, no march): the rows of T are the
time signals, in backward time, of the unit seeds (a position seed
starts at 1, a velocity seed at 0 with velocity -sqrt(mu_k), in
`seed_from_rho` scaling), W holds the quadrature weights in backward
time (0 at t=T, dt/2 at t=0, dt between), and M = D diag(chi) D^T is
the omega-mass matrix of the sine basis, D the orthonormal DST-I, the
Kronecker product of the DST-I matrices of the axes.

P is applied in two levels.  It is exact on a band of modes
(`_free_wave_band`): those within b of the top index of some axis,
where the leapfrog's group velocity vanishes and the scheme observes
worst (Zuazua, SIAM Review 47, 2005), for the largest b whose block
has (2 n_band)^2 <= 3 (nt+1) nodes entries, the size of three
trajectories.  Off the band CG divides by P's
diagonal, sum_m w_m T_k(m)^2 M_kk + eps (`_free_wave_diagonal`), which
needs neither D nor M: M_kk is chi's interior under the squared
orthonormal DST-I matrix of each axis.  The band block
(`_free_wave_block`, from T's band columns and D's band rows only) is
factored L L^T in float64, L is inverted in its own storage by 2 x 2
blocks of matrix products (`_invert_lower`), and CG applies the inverse
factor F = L^{-1}, rounded once to float32, half the memory and traffic
of float64, to the band residual scaled by a power of two to a maximum
in [1/2, 1), so the apply neither underflows nor overflows float32 at
any amplitude, and changes no bit where the unscaled apply did neither
(operator preconditioning, Hiptmair, Comput. Math. Appl. 52, 2006; CG on
the HUM Gramian, Glowinski, Lions & He, CUP 2008).  On
every 1D grid with nt >= 4 nx / 3 and on 2D squares of 5 to 8 nodes the
band is every mode, so P carries the full mode coupling of omega: a
solve with a potential takes a few iterations and one without takes
one.  On smoke_2d the band holds 483 of its 1444 modes (max(kx, ky) >=
32), and its floor solves take 63 Gramian applies where the diagonal
alone took 231.

A `_GramianOperator` on (grid, region, potential) is the one place that
solves the adjoint phi backward from a seed (`adjoint`) and drives the
state from rest with the control u = chi phi (`from_rest`), both on
(position, velocity) arrays, so an apply builds no `StatePair`.  It owns the
two full-size fields these write: the backward and the forward
trajectory.  The forward march reads u from the backward trajectory in
place, phi in reversed time as its source and chi as the source's
weight, with the bits of a march over u formed beforehand, so no apply
forms u; the backward march reads the potential in reversed time.  So a
Gramian apply (`_gramian_rho`: both halves in turn) allocates no
full-size array.  Fresh arrays of about 1 MB and more can go back to
the kernel when freed, and repeated applies that allocate them take
about 900 page faults each at nx = 200, nt = 600.  Its marches
run the same stepping kernels as `solve_forward` and give the same bits,
but do not call it.  `solve_null_control` hands one operator to CG and
then reconstructs the controlled solution in it: u is formed once
(`control`), the backward trajectory is freed, the forward march reads
u, and the free solution is summed into the forward trajectory in place.

The dense oracle (`dense_oracle_control`) assembles the constraint
matrix that maps control dofs to terminal coordinates by rows, not
columns.  The discrete Green identity behind the Gramian's symmetry
gives e_i . c(u) = (u, chi phi_i)_{L^2(q_T)}, phi_i the adjoint solved
backward from the seed of the unit coordinate e_i, so row i is the
adjoint control of e_i: 2 * n_modes backward marches on one operator
build the matrix, where its columns would take one forward solve per
control dof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, whole_number
from .fields import (SpaceTimeField, StatePair, _embed, dst1, eigenvalues,
                     from_sine_coefficients, l2_qt, sine_coefficients, v_norm)
from .grids import ControlRegion, SpaceTimeGrid, check_same_grid
from .solver import _march, _terminal_velocity, solve_forward, terminal_state

FLOOR_THETA = 0.01      # floor stop: |r_k| <= theta * eps |rho_k|


@dataclass(frozen=True)
class LinearControlProblem:
    """Steer `initial` to `target` with controls on region; frozen, so the
    preconditioner it caches (`precond`) never goes stale."""

    grid: SpaceTimeGrid
    region: ControlRegion
    potential: SpaceTimeField | None = None
    source: SpaceTimeField | None = None
    initial: StatePair | None = None
    target: StatePair | None = None
    eps_reg: float | None = None          # None -> min(dx)^2
    cg_tol: float = 1e-8
    cg_max_iter: int = 500

    def __post_init__(self):
        check_same_grid(self.grid, region=self.region, potential=self.potential,
                        source=self.source, initial=self.initial, target=self.target)
        for name in ("initial", "target"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, StatePair.zeros(self.grid))
        if self.eps_reg is not None and not 0 <= self.eps_reg < math.inf:
            raise ConfigError("eps_reg must be nonnegative and finite")
        if not 0 < self.cg_tol < math.inf:
            raise ConfigError("cg_tol must be positive and finite")
        object.__setattr__(self, "cg_max_iter", whole_number("cg_max_iter", self.cg_max_iter))

    @property
    def effective_eps(self) -> float:
        return min(self.grid.dx) ** 2 if self.eps_reg is None else float(self.eps_reg)

    @cached_property
    def precond(self):
        """P = G(0) + eps I (`_free_wave_preconditioner`; None with eps = 0),
        built at the first solve that reads it: `check` builds problems it
        never solves."""
        return _free_wave_preconditioner(self.grid, self.region, self.effective_eps)


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
    seed_coords: np.ndarray | None = None


# ---------------------------------------------------------------------------
# seed coordinates and the dual pairing
# ---------------------------------------------------------------------------

def _sqrt_mu(grid):
    return np.sqrt(eigenvalues(grid))


def _seed(grid, rho):
    """The (position, velocity) arrays of the seed of the coordinates rho,
    unchecked: they vanish on the boundary by construction, and a nonfinite
    rho gives a seed whose march raises BlowupError."""
    p_hat, q_hat = rho.reshape((2,) + grid.interior_shape)
    return (from_sine_coefficients(grid, p_hat),
            from_sine_coefficients(grid, _sqrt_mu(grid) * q_hat))


def seed_from_rho(grid: SpaceTimeGrid, rho: np.ndarray) -> StatePair:
    """The seed of the coordinates rho."""
    return StatePair(grid, *_seed(grid, rho))


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

class _GramianOperator:
    """Adjoint seeds to states on one (grid, region, potential), in fields
    built once; seeds and states are (position, velocity) arrays.

    Owns the backward trajectory phi (in reversed time, as the time-reversed
    forward march writes it) and the forward trajectory z.  The forward
    march reads its control u = chi phi from phi in place, phi[::-1] as the
    source and chi as its weight, so no apply forms u.  The marches read the
    potential in place, the backward one in reversed time.  Neither half
    allocates a full-size array.
    """

    def __init__(self, grid, region, potential):
        levels = (grid.nt + 1,) + grid.shape
        self.grid = grid
        self.weights = region.weights
        self.A = A = potential.values if potential is not None else None
        # the backward march is the forward one with the potential reversed
        self.back_A = A[::-1] if A is not None else None
        self.back = np.zeros(levels)
        self.z = np.zeros(levels)
        self.rest = np.zeros(grid.shape)

    def adjoint(self, position, velocity):
        """Write into back the adjoint phi solved backward from the seed
        (position, velocity) (data of phi at t=T), then zero its level 0, phi
        at t=T: the control's final level carries no quadrature weight."""
        _march(self.grid, self.back, position, -velocity, self.back_A, None)
        self.back[0] = 0.0

    def control(self) -> np.ndarray:
        """The control chi * phi of the last `adjoint`, in a new array."""
        return np.multiply(self.back[::-1], self.weights)

    def from_rest(self, u=None):
        """Write into z the state driven from rest by the control u, or by
        chi * phi read from back where u is None; returns its scheme-exact
        terminal (position, velocity), the position a view of z."""
        grid = self.grid
        S, w = (self.back[::-1], self.weights) if u is None else (u, None)
        _march(grid, self.z, self.rest, self.rest, self.A, S, w)
        return self.z[-1], _embed(grid, _terminal_velocity(grid, self.z, self.A, S, w))


def gramian_apply(grid: SpaceTimeGrid, potential: SpaceTimeField | None,
                  region: ControlRegion, seed: StatePair) -> StatePair:
    """Apply the control Gramian to an adjoint seed (data of phi at t=T).

    Solves the adjoint backward from the seed, drives the state forward
    from rest with the restricted adjoint as control, and returns the
    scheme-exact terminal state; combine with `hum_pairing` to evaluate
    <Lambda s, s'> = (phi_s, phi_s')_{L^2(q_T)}.
    """
    check_same_grid(grid, region=region, potential=potential, seed=seed)
    op = _GramianOperator(grid, region, potential)
    op.adjoint(seed.position, seed.velocity)
    return StatePair(grid, *op.from_rest())


def _gramian_rho(op, rho):
    """G rho: one Gramian apply in seed coordinates, in op's fields."""
    op.adjoint(*_seed(op.grid, rho))
    position, velocity = op.from_rest()
    return dual_to_rho(op.grid, velocity, -position)


def _discrete_eigenvalues(grid):
    """Eigenvalues of -Lap_h on the sine modes, flattened in C order."""
    per_axis = [(4.0 / h ** 2) * np.sin(np.arange(1, N - 1) * np.pi / (2 * (N - 1))) ** 2
                for h, N in zip(grid.dx, grid.shape)]
    return reduce(np.add.outer, per_axis).ravel()


def _free_wave_signals(grid, modes):
    """T and W of the closed form G(0) (module docstring) on the seeds of
    `modes`, sine-mode indices in C order; W as a column.

    T is stored transposed: its row m holds, for every unit seed (position
    seeds first), the coefficient of the seed's one sine mode in the
    backward trajectory at backward time m, from the mode's leapfrog
    recurrence started as the march starts.
    """
    dt = grid.dt
    mu_h = _discrete_eigenvalues(grid)[modes]
    n = mu_h.size
    T = np.empty((grid.nt + 1, 2 * n))
    T[0, :n] = 1.0
    T[0, n:] = 0.0
    T[1, :n] = 1.0 - 0.5 * dt * dt * mu_h
    T[1, n:] = -dt * _sqrt_mu(grid).ravel()[modes]
    k = np.tile(2.0 - dt * dt * mu_h, 2)
    for m in range(1, grid.nt):
        np.multiply(k, T[m], out=T[m + 1])
        T[m + 1] -= T[m - 1]
    w = np.full((grid.nt + 1, 1), dt)
    w[0] = 0.0                # t = T: the final control level carries no weight
    w[-1] = 0.5 * dt          # t = 0
    return T, w


def _dst_matrices(grid):
    """The orthonormal DST-I matrix of each axis; D is their Kronecker product."""
    return [dst1(np.eye(N), (-1,)) for N in grid.interior_shape]


def _free_wave_block(grid, region, modes, dst):
    """The block of G(0) on the position and velocity seeds of `modes`, in
    closed form (module docstring), from T's columns and the rows of those
    modes of D, whose factors `dst` are the grid's `_dst_matrices`; every
    mode gives the whole G(0)."""
    m = len(modes)
    index = np.unravel_index(modes, grid.interior_shape)
    rows = [S[k] for S, k in zip(dst, index)]
    D = reduce(lambda x, y: (x[:, :, None] * y[:, None, :]).reshape(m, -1), rows)
    chi = region.weights[(slice(1, -1),) * grid.dim].ravel()
    M = (D * chi) @ D.T
    del D                     # freed before G exists, which lowers the build's peak
    T, w = _free_wave_signals(grid, modes)
    G = T.T @ (w * T)
    del T
    G.reshape(2, m, 2, m)[...] *= M[:, None, :]
    return G


def _free_wave_diagonal(grid, region, modes, dst):
    """The diagonal of G(0) on the seeds of `modes`, sum_m w_m T_k(m)^2 M_kk,
    without D: M's diagonal is chi's interior under the squared orthonormal
    DST-I matrix of each axis (`dst`, the grid's `_dst_matrices`)."""
    T, w = _free_wave_signals(grid, modes)
    mass = region.weights[(slice(1, -1),) * grid.dim]
    for axis, S in enumerate(dst):
        mass = np.moveaxis(np.tensordot(S * S, mass, (1, axis)), 0, axis)
    return np.einsum("m,mk,mk->k", w[:, 0], T, T) * np.tile(mass.ravel()[modes], 2)


def _free_wave_band(grid):
    """The modes (C order) on which P is exact: those within b of the top
    index of some axis, for the largest b whose block, (2 modes)^2 entries,
    is no larger than three trajectories of the grid."""
    top_gap = reduce(np.minimum.outer,
                     [np.arange(N - 1, -1, -1) for N in grid.interior_shape]).ravel()
    budget = 3 * (grid.nt + 1) * math.prod(grid.shape)
    fits = 4 * np.cumsum(np.bincount(top_gap)) ** 2 <= budget
    return np.flatnonzero(top_gap < np.count_nonzero(fits))


def _invert_lower(L):
    """The inverse of the nonsingular lower-triangular float64 L, written
    into L's own storage, which is returned; its upper triangle stays 0.

    Recursive 2 x 2 blocks (Du Croz & Higham, IMA J. Numer. Anal. 12,
    1992): [[A, 0], [C, B]]^{-1} = [[A^{-1}, 0], [-B^{-1} C A^{-1}, B^{-1}]],
    so everything above the leaves of 64 rows or fewer is matrix products
    (about 2 n^3 / 3 flops), where `np.linalg.inv` would run a pivoted LU and n
    triangular solves on a matrix that is triangular already.
    """
    n = len(L)
    if n <= 64:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    h = n // 2
    A = _invert_lower(L[:h, :h])
    B = _invert_lower(L[h:, h:])
    C = L[h:, :h]
    C[...] = -(B @ (C @ A))
    return L


def _free_wave_preconditioner(grid, region, eps):
    """(band, F, diag) for P = G(0) + eps I, or None with eps = 0, where CG
    runs plain: P^{-1} = F^T F on the seeds `band` of the `_free_wave_band`
    modes, F = L^{-1} for the Cholesky factor L of P's block there, inverted
    in float64 in L's storage (`_invert_lower`) and rounded to float32 once,
    so F is exactly lower-triangular, and P's diagonal `diag` off them (inf
    on the band).  Each axis's DST-I matrix is built once; the diagonal is
    not built where the band is every mode (every committed 1D grid)."""
    if eps == 0.0:
        return None
    n = math.prod(grid.interior_shape)
    modes = _free_wave_band(grid)
    keep = np.ones(n, bool)
    keep[modes] = False
    off = np.flatnonzero(keep)
    dst = _dst_matrices(grid)
    diag = np.full(2 * n, np.inf)
    if off.size:
        diag[np.concatenate([off, n + off])] = _free_wave_diagonal(grid, region, off, dst) + eps
    band = np.concatenate([modes, n + modes])
    P = _free_wave_block(grid, region, modes, dst)
    del dst
    P[np.diag_indices_from(P)] += eps
    L = np.linalg.cholesky(P)
    del P
    return band, _invert_lower(L).astype(np.float32), diag


def _precondition(precond, r):
    """P^{-1} r for precond = (band, F, diag) of `_free_wave_preconditioner`:
    r / diag off the band and F^T F r on it, F applied in float32 to r's
    band scaled by the power of two 2^e that brings its maximum into
    [1/2, 1), and the result scaled back in float64; r itself for None."""
    if precond is None:
        return r
    band, F, diag = precond
    z = r / diag
    r_band = r[band]
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(r_band))))[1])
    z[band] = F.T @ (F @ (r_band / scale).astype(np.float32))
    z[band] *= scale          # on float64 z: float32 times a Python float stays float32
    return z


def _cg(op, c, tol, max_iter, eps, floor=0.0, precond=None):
    """Preconditioned CG for A x = c, A = G + eps I; returns (x, iters,
    converged, history).

    G is applied by `_gramian_rho` on the `_GramianOperator` op, and
    z = P^{-1} r by `_precondition`.  Stops once
    |r_k| <= max(tol |c|, floor |x_k|), reading the true residual r;
    floor = 0 is the plain relative-residual stop.

    CG and the apply are homogeneous, so it solves for c 2^-e, 2^e the
    power of two of max|c|, and returns x 2^e: the same bits, but c @ c
    neither underflows nor overflows.
    """
    e = math.frexp(float(np.max(np.abs(c))))[1]
    c = np.ldexp(c, -e)
    x = np.zeros_like(c)
    nc = math.sqrt(float(c @ c))
    if nc == 0.0:
        return x, 0, True, [0.0]
    r = c.copy()
    d = z = _precondition(precond, r)
    rs = float(r @ r)
    rz = float(r @ z)
    history = [math.sqrt(rs) / nc]
    it = 0
    converged = math.sqrt(rs) <= tol * nc
    while not converged and it < max_iter:
        Gd = _gramian_rho(op, d) + eps * d
        dGd = float(d @ Gd)
        if dGd <= 0.0:
            break   # positivity lost to roundoff; keep the best iterate
        alpha = rz / dGd
        x = x + alpha * d
        r = r - alpha * Gd
        rs = float(r @ r)
        it += 1
        history.append(math.sqrt(rs) / nc)
        converged = math.sqrt(rs) <= max(tol * nc, floor * math.sqrt(float(x @ x)))
        if not converged:
            z = _precondition(precond, r)
            rz_new = float(r @ z)
            d = z + (rz_new / rz) * d
            rz = rz_new
    return np.ldexp(x, e), it, converged, history


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


def _controlled_solution(problem, op, u, free, free_term, **solver_info) -> ControlSolution:
    """The control u and its state: the response from rest, written into op.z
    once the backward trajectory is freed, plus the free solution."""
    del op.back                 # the forward march reads only u
    w_term = StatePair(problem.grid, *op.from_rest(u))
    if free is not None:
        op.z += free.values
    terminal = free_term + w_term
    control = SpaceTimeField._trusted(problem.grid, u)
    return ControlSolution(
        control=control,
        trajectory=SpaceTimeField(problem.grid, op.z),
        terminal=terminal,
        defect=float(v_norm(terminal - problem.target)),
        control_norm=float(l2_qt(control)),
        **solver_info,
    )


def solve_null_control(problem: LinearControlProblem, floor: bool = False,
                       precond: tuple | None = None) -> ControlSolution:
    """Steer the initial state to the target; control of minimal L^2(q_T) norm.

    Reduction to a reach-from-rest problem: subtract the uncontrolled
    solution with the given data and source, then match the remaining
    terminal gap through the Gramian equation (G + eps I) rho = c, by CG
    stopped at cg_tol.  CG is preconditioned with P = G(0) + eps I:
    `precond`, as `_free_wave_preconditioner` builds it for this grid,
    region and eps, or the problem's P when None (none with eps = 0).  With
    floor and eps > 0 CG also stops once its residual is below
    FLOOR_THETA times the Tikhonov term, which keeps the terminal defect
    within a factor (1 + FLOOR_THETA) / (1 - FLOOR_THETA) of the exact
    regularized solve's (module docstring), and `converged` means either
    stop was met.  With eps_reg = 0 and no `precond` this is plain CG.
    """
    grid, eps = problem.grid, problem.effective_eps
    if precond is None:
        # read (built at the first solve) before the solve's fields, so
        # its scratch is freed first
        precond = problem.precond
    free, free_term, c = _free_response(problem)
    op = _GramianOperator(grid, problem.region, problem.potential)
    rho, iters, converged, history = _cg(op, c, problem.cg_tol, problem.cg_max_iter, eps,
                                         FLOOR_THETA * eps if floor else 0.0, precond)
    op.adjoint(*_seed(grid, rho))
    return _controlled_solution(problem, op, op.control(), free, free_term,
                                cg_iterations=iters, converged=bool(converged),
                                residual_history=history, seed_coords=rho)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def _constraint_rows(op):
    """Whitened constraint matrix Ct of the `_GramianOperator` op, square-root
    quadrature weights sqrt_w and the boolean mask of the active control dofs.

    Row i is the adjoint control of the unit seed e_i, formed in op, read
    on the mask (time level outer, interior node in C order inner) times
    sqrt_w.
    """
    grid = op.grid
    interior = (slice(1, -1),) * grid.dim
    mask = np.zeros((grid.nt + 1,) + grid.shape, dtype=bool)
    mask[(slice(0, -1),) + interior] = op.weights[interior] == 1.0
    w = np.full(grid.nt, grid.dt * math.prod(grid.dx))
    w[0] *= 0.5
    sqrt_w = np.sqrt(np.repeat(w, np.count_nonzero(mask[0])))
    eye = np.eye(2 * math.prod(grid.interior_shape))
    Ct = np.empty((len(eye), sqrt_w.size))
    for row, e in zip(Ct, eye):
        op.adjoint(*_seed(grid, e))
        row[:] = op.control()[mask]
    return Ct * sqrt_w, sqrt_w, mask


def dense_oracle_control(problem: LinearControlProblem) -> ControlSolution:
    """Ground-truth control on small grids via dense constrained least squares.

    The whitened constraint matrix Ct maps the control dofs on omega x
    levels 0..nt-1, scaled by the square-root quadrature weights, to the
    coordinates of the terminal state they reach from rest.  Its rows are
    adjoint controls of the unit seeds (Green identity, module
    docstring), so 2 * n_modes backward marches build it; the control is
    written back through the same active-dof mask and reconstructed in the
    same operator.

    eps_reg = 0: exact minimal-norm solution of the terminal constraint
    (LAPACK least squares); eps_reg > 0: direct solve of the same
    regularized normal equations the CG path addresses.
    """
    grid, region = problem.grid, problem.region
    if math.prod(grid.shape) * (grid.nt + 1) > 5 * 10**4:
        raise ConfigError("grid too large for the dense oracle (cap 5e4 unknowns)")
    eps = problem.effective_eps
    op = _GramianOperator(grid, region, problem.potential)
    Ct, sqrt_w, mask = _constraint_rows(op)
    free, free_term, c = _free_response(problem)
    if eps == 0.0:
        ut, *_ = np.linalg.lstsq(Ct, c, rcond=None)
    else:
        G = Ct @ Ct.T + eps * np.eye(Ct.shape[0])
        rho = np.linalg.solve(G, c)
        ut = Ct.T @ rho

    u = np.zeros(mask.shape)
    u[mask] = ut / sqrt_w
    return _controlled_solution(problem, op, u, free, free_term,
                                cg_iterations=0, converged=True, residual_history=[])
