"""Damped-Newton least-squares iteration for semilinear wave control.

The error functional

    E(y, f) = 1/2 | y_tt - Lap y + g(y) - f chi_omega |^2_{L^2(Q_T)}

vanishes exactly at controlled solutions.  Each step solves the
linearized equation with potential g'(y_k) and the current residual as
source for the minimal-norm null-controlled pair (Y1, F1), then updates

    (y_{k+1}, f_{k+1}) = (y_k, f_k) - lambda_k (Y1, F1),

with lambda_k minimizing E over [0, m].  The directional derivative
satisfies E'(y,f).(Y1,F1) = 2 E(y,f) exactly at the discrete level
because (Y1, F1) satisfies the linearized equation stencil-exactly, so
-(Y1, F1) is always a descent direction; forcing lambda = 1 recovers
the classical Newton iteration.  The inner CG therefore only sets the
terminal defect of the pair, and it stops once that defect is within
1% of the Tikhonov floor (`linear_control.FLOOR_THETA`).

Along the segment E is evaluated without further PDE solves: the
updated residual is (1 - lambda) r + l(lambda) with
l = g(y - lambda Y1) - g(y) + lambda g'(y) Y1, a pointwise identity of
the shared stencils.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError, InsufficientRecords
from .fields import SpaceTimeField, StatePair, l2_qt, linf_l1, linf_lp, linf_v, v_norm
from .grids import ControlRegion, SpaceTimeGrid, check_geometric_condition
from .linear_control import LinearControlProblem, solve_null_control
from .nonlinearity import Nonlinearity, beta_star
from .solver import residual_field


@dataclass
class TargetProblem:
    """Steering problem: drive `initial` to `target` on grid with support region."""

    grid: SpaceTimeGrid
    region: ControlRegion
    initial: StatePair
    target: StatePair
    x0: tuple | float | None = None        # observation point for the geometry check
    eps_reg: float | None = None            # inner Tikhonov parameter, None -> min(dx)^2
    cg_tol: float = 1e-8
    cg_max_iter: int = 500

    def geometry_ok(self):
        if self.x0 is None:
            return None
        return check_geometric_condition(self.grid, self.region, self.x0).holds

    def inner_problem(self, potential, source, initial, target) -> LinearControlProblem:
        return LinearControlProblem(
            self.grid, self.region, potential=potential, source=source,
            initial=initial, target=target, eps_reg=self.eps_reg,
            cg_tol=self.cg_tol, cg_max_iter=self.cg_max_iter,
            geometry_ok=self.geometry_ok())


DIVERGENCE_THRESHOLD = 1e6            # on |y|_{Linf(L1)}, shared by all methods


@dataclass
class LSConfig:
    m: float = 2.0                    # line-search upper bound
    tol: float = 1e-8                 # stop when sqrt(2E) <= tol * sqrt(2E_0)
    max_outer: int = 50
    e_floor: float = 1e-20            # absolute E floor counted as converged
    scan_points: int = 33
    refine_rel_width: float = 1e-3
    C: float = 1.0                    # diagnostic constant, never used by the solver
    init: str = "linear"              # or "linear_frozen"

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("line-search bound m must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")
        if not self.refine_rel_width > 0:
            # the golden-section refinement would never end
            raise ConfigError("least_squares.refine_rel_width must be positive")


@dataclass
class LSState:
    y: SpaceTimeField
    f: SpaceTimeField
    initial_state: StatePair          # algebraic bookkeeping of iterate data at t=0
    terminal_state: StatePair         # and at t=T (sums of scheme-exact snapshots)


@dataclass
class IterateRecord:
    k: int
    E: float
    sqrt_E: float
    lam: float = math.nan
    lam_tilde: float = math.nan
    F1_qT: float = math.nan
    Y1_linf_V: float = math.nan
    y_linf_L1: float = math.nan
    gprime_linf_ld: float = math.nan
    inner_defect: float = math.nan
    inner_cg_iters: int = 0
    inner_converged: bool = True
    init_defect_V: float = 0.0
    term_defect_V: float = 0.0
    step_delta: float = math.nan      # Picard-style |y_{k+1} - y_k|, nan for Newton paths
    wall_time: float = 0.0            # kept out of CSV exports for determinism
    inner_residuals: list = field(default_factory=list)   # CG history, verbose export


@dataclass
class LSResult:
    records: list
    y: SpaceTimeField
    f: SpaceTimeField
    status: str                        # converged | stagnated | cap_reached | inner_failure
    E0: float
    M_run: float
    method: str = "least_squares"


def compute_E(y: SpaceTimeField, f: SpaceTimeField | None, g: Nonlinearity,
              region: ControlRegion | None) -> float:
    """E = 1/2 |residual|^2 in the trapezoidal L^2(Q_T) norm."""
    r = residual_field(y, f, g, region)
    return 0.5 * l2_qt(r) ** 2


def _newton_step(problem: TargetProblem, gp: SpaceTimeField, r: SpaceTimeField):
    """Null-controlled pair of the linearized equation with potential gp = g'(y)
    and source r, CG stopped at the Tikhonov floor.

    The pair satisfies the linearized equation stencil-exactly however far
    CG has run, so the floor stop moves only its terminal defect, by at
    most a factor 1 + FLOOR_THETA (see `linear_control`).
    """
    grid = problem.grid
    A = None if np.all(gp.values == 0.0) else gp
    return solve_null_control(problem.inner_problem(
        potential=A, source=r, initial=StatePair.zeros(grid),
        target=StatePair.zeros(grid)), at_floor=True)


def descent_direction(problem: TargetProblem, g: Nonlinearity, y: SpaceTimeField,
                      f: SpaceTimeField):
    """Null-controlled solution of the linearized residual equation.

    Returns (Y1, F1, inner_report, residual); the pair satisfies
    Y1_tt - Lap Y1 + g'(y) Y1 = F1 chi + residual(y, f) with zero data,
    so E'(y, f).(Y1, F1) = 2 E(y, f).
    """
    r = residual_field(y, f, g, problem.region)
    inner = _newton_step(problem, SpaceTimeField(problem.grid, g.dg(y.values)), r)
    return inner.trajectory, inner.control, inner, r


@dataclass
class LineSearchResult:
    lam: float
    E_new: float
    status: str           # ok | stagnated | converged (already at a zero of E)


def line_search(y: SpaceTimeField, r: SpaceTimeField, Y1: SpaceTimeField,
                g: Nonlinearity, m: float, scan_points: int = 33,
                refine_rel_width: float = 1e-3) -> LineSearchResult:
    """argmin over [0, m] of E along -(Y1, F1): uniform scan + golden refinement.

    Every evaluation combines cached fields pointwise (no PDE solve).
    Returns the best evaluated point, so E never increases at the
    accepted step; a minimizer at 0 signals stagnation.
    """
    grid = y.grid
    sl = (slice(1, -1),) * (grid.dim + 1)
    y_mid = y.values[sl]
    Y_mid = Y1.values[sl]
    r_mid = r.values[sl]
    gy = g.g(y_mid)
    gpyY = g.dg(y_mid) * Y_mid
    cell = grid.dt * math.prod(grid.dx)

    def E_at(lam: float) -> float:
        val = (1.0 - lam) * r_mid + (g.g(y_mid - lam * Y_mid) - gy + lam * gpyY)
        return 0.5 * cell * float(np.sum(val * val))

    lams = np.linspace(0.0, m, scan_points)
    vals = [E_at(la) for la in lams]
    if vals[0] == 0.0:
        return LineSearchResult(0.0, 0.0, "converged")
    i = int(np.argmin(vals))
    best_lam, best_E = float(lams[i]), vals[i]

    a = float(lams[max(i - 1, 0)])
    b = float(lams[min(i + 1, scan_points - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = E_at(x1), E_at(x2)
    while (b - a) > refine_rel_width * m:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = E_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = E_at(x2)
        for xx, ff in ((x1, f1), (x2, f2)):
            if ff < best_E:
                best_lam, best_E = float(xx), ff

    if best_lam == 0.0:
        return LineSearchResult(0.0, vals[0], "stagnated")
    return LineSearchResult(best_lam, best_E, "ok")


def analytic_lambda(E: float, c_of_y: float, s: float) -> float:
    """Closed-form surrogate step: 1 in the superlinear regime, else the
    damped value 1 / ((1+s)^(1/s) c^(1/s) sqrt(E)); logged, never applied."""
    if s == 0:
        return 1.0
    if c_of_y <= 0:
        return 1.0
    t = (1.0 + s) ** (1.0 / s) * c_of_y ** (1.0 / s) * math.sqrt(E)
    return 1.0 if t < 1.0 else 1.0 / t


def _safe_exp(x: float) -> float:
    # the observability constants grow doubly exponentially; report inf
    # instead of crashing when they leave floating-point range
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def diagnostic_constants(E: float, gprime_linf_ld: float, g: Nonlinearity,
                         C: float, M: float, domain_measure: float) -> dict:
    """Constants of the decay estimate, evaluated for a user-chosen C.

    d(y) = C exp(C |g'(y)|^2_{Linf(Ld)}),
    c(y) = C / ((1+s) sqrt 2) [g']_s d(y)^(1+s),
    e = c(y) E^(s/2); c_M, d_M use the declared growth pair and the
    running bound M on |y|_{Linf(L1)}.  Purely diagnostic.
    """
    if C <= 0:
        raise ConfigError("diagnostic constant C must be positive")
    s = g.s
    out = {"d_of_y": C * _safe_exp(C * gprime_linf_ld ** 2),
           "beta_star_s": beta_star(s, C) if s > 0 else 0.0}
    if g.seminorm is not None:
        c_of_y = C / ((1 + s) * math.sqrt(2.0)) * g.seminorm * out["d_of_y"] ** (1 + s)
        out["c_of_y"] = c_of_y
        out["e_k"] = c_of_y * E ** (s / 2.0) if c_of_y > 0 else 0.0
    else:
        out["c_of_y"] = None
        out["e_k"] = None
    if g.alpha is not None and g.beta is not None and g.seminorm is not None:
        C3 = 2.0 * C * max(1.0, _safe_exp(2.0 * C * g.alpha ** 2) * domain_measure)
        d_M = C3 * (1.0 + M / domain_measure) ** (2.0 * C * g.beta ** 2)
        out["d_M"] = d_M
        out["c_M"] = C / ((1 + s) * math.sqrt(2.0)) * g.seminorm * d_M ** (1 + s)
    else:
        out["d_M"] = None
        out["c_M"] = None
    return out


def initialize(problem: TargetProblem, g: Nonlinearity, strategy: str):
    """Starting pair: the controlled solution of a linear surrogate problem.

    linear         potential 0, source 0 (the g = 0 problem)
    linear_frozen  potential g'(0), source -g(0)

    CG stops at the Tikhonov floor, as in every Newton step.
    """
    grid = problem.grid
    if strategy == "linear":
        potential, source = None, None
    elif strategy == "linear_frozen":
        dg0 = float(g.dg(0.0))
        potential = None if dg0 == 0.0 else SpaceTimeField.constant(grid, dg0)
        source = None if g.g0 == 0.0 else SpaceTimeField.constant(grid, -g.g0)
    else:
        raise ConfigError(f"unknown initialization strategy {strategy!r}")
    return solve_null_control(problem.inner_problem(
        potential=potential, source=source,
        initial=problem.initial, target=problem.target), at_floor=True)


def ls_solve(problem: TargetProblem, g: Nonlinearity, config: LSConfig | None = None,
             force_lambda: float | None = None, method_name: str = "least_squares") -> LSResult:
    """Run the damped least-squares iteration until sqrt(2E) drops below
    tol * sqrt(2E_0) (or the absolute floor), the iteration cap, or a
    stagnation/failure status."""
    config = config or LSConfig()
    grid, region = problem.grid, problem.region
    t_start = time.perf_counter()

    init_sol = initialize(problem, g, config.init)
    state = LSState(y=init_sol.trajectory, f=init_sol.control,
                    initial_state=problem.initial, terminal_state=init_sol.terminal)

    records: list[IterateRecord] = []
    status = "cap_reached"
    E0 = None
    M_run = 0.0
    d = float(grid.dim)

    for k in range(config.max_outer + 1):
        rec = IterateRecord(k=k, E=math.nan, sqrt_E=math.nan)
        try:
            r = residual_field(state.y, state.f, g, region)
        except ConfigError:
            status = "inner_failure"
            records.append(rec)
            break
        E = 0.5 * l2_qt(r) ** 2
        if E0 is None:
            E0 = E
        rec.E = float(E)
        rec.sqrt_E = math.sqrt(E)
        rec.y_linf_L1 = linf_l1(state.y)
        M_run = max(M_run, rec.y_linf_L1)
        gp = SpaceTimeField(grid, g.dg(state.y.values))     # also the step's potential
        rec.gprime_linf_ld = linf_lp(gp, d)
        if g.seminorm is not None and g.s > 0:
            diag = diagnostic_constants(E, rec.gprime_linf_ld, g, config.C,
                                        M_run, grid.domain_measure)
            rec.lam_tilde = analytic_lambda(E, diag["c_of_y"], g.s)
        rec.init_defect_V = v_norm(state.initial_state - problem.initial)
        rec.term_defect_V = v_norm(state.terminal_state - problem.target)

        if math.sqrt(2 * E) <= config.tol * math.sqrt(2 * E0) or E <= config.e_floor:
            status = "converged"
            rec.wall_time = time.perf_counter() - t_start
            records.append(rec)
            break
        if rec.y_linf_L1 > DIVERGENCE_THRESHOLD:
            status = "diverged"
            rec.wall_time = time.perf_counter() - t_start
            records.append(rec)
            break
        if k == config.max_outer:
            status = "cap_reached"
            rec.wall_time = time.perf_counter() - t_start
            records.append(rec)
            break

        try:
            inner = _newton_step(problem, gp, r)
        except BlowupError:
            status = "inner_failure"
            rec.wall_time = time.perf_counter() - t_start
            records.append(rec)
            break
        Y1, F1 = inner.trajectory, inner.control
        rec.F1_qT = inner.control_norm
        rec.Y1_linf_V = linf_v(Y1)
        rec.inner_defect = inner.defect
        rec.inner_cg_iters = inner.cg_iterations
        rec.inner_converged = inner.converged
        rec.inner_residuals = inner.residual_history

        if force_lambda is not None:
            lam = float(force_lambda)
        else:
            ls = line_search(state.y, r, Y1, g, config.m,
                             config.scan_points, config.refine_rel_width)
            if ls.status == "stagnated":
                rec.lam = 0.0
                status = "stagnated"
                rec.wall_time = time.perf_counter() - t_start
                records.append(rec)
                break
            lam = ls.lam
        rec.lam = lam

        state = LSState(
            y=SpaceTimeField(grid, state.y.values - lam * Y1.values),
            f=SpaceTimeField(grid, state.f.values - lam * F1.values),
            initial_state=state.initial_state,
            terminal_state=state.terminal_state - inner.terminal.scaled(lam),
        )
        rec.wall_time = time.perf_counter() - t_start
        records.append(rec)

    return LSResult(records=records, y=state.y, f=state.f, status=status,
                    E0=float(E0 if E0 is not None else math.nan), M_run=M_run,
                    method=method_name)


@dataclass
class OrderEstimate:
    order: float
    fit_residual: float
    n_pairs: int


def estimate_order(records, window: int = 4) -> OrderEstimate:
    """Convergence order: slope of ln sqrt(E_{k+1}) against ln sqrt(E_k).

    Uses the last `window` strictly-decreasing consecutive pairs with E
    above 1e3 * machine epsilon (floor effects excluded).
    """
    E = [rec.E if hasattr(rec, "E") else float(rec) for rec in records]
    floor = 1e3 * np.finfo(float).eps
    xs, ys = [], []
    for a, b in zip(E[:-1], E[1:]):
        if a > floor and b > floor and 0.0 < b < a:
            xs.append(0.5 * math.log(a))
            ys.append(0.5 * math.log(b))
    if len(xs) < 2:
        raise InsufficientRecords(
            f"need at least 2 usable decreasing pairs above the floor, got {len(xs)}")
    xs = np.asarray(xs[-window:])
    ys = np.asarray(ys[-window:])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = math.sqrt(float(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return OrderEstimate(order=float(slope), fit_residual=residual, n_pairs=len(xs))


def smallest_sufficient_C(records, g: Nonlinearity,
                          grid_candidates=None) -> float | None:
    """Smallest C on a log grid making the one-step decay bound

        sqrt(E_{k+1}) <= (|1 - lam_k| + lam_k^(1+s) c(y_k) E_k^(s/2)) sqrt(E_k)

    hold on every recorded update; None when no candidate suffices or
    the seminorm is unknown."""
    if g.seminorm is None or g.s <= 0:
        return None
    s = g.s
    pairs = []
    for prev, nxt in zip(records[:-1], records[1:]):
        if math.isfinite(prev.lam) and prev.E > 0:
            pairs.append((prev.E, nxt.E, prev.lam, prev.gprime_linf_ld))
    if not pairs:
        return None
    candidates = grid_candidates if grid_candidates is not None else np.logspace(-3, 3, 121)
    for C in candidates:
        ok = True
        for E_k, E_next, lam, gnorm in pairs:
            d_of_y = C * math.exp(C * gnorm ** 2)
            c_of_y = C / ((1 + s) * math.sqrt(2.0)) * g.seminorm * d_of_y ** (1 + s)
            bound = (abs(1 - lam) + lam ** (1 + s) * c_of_y * E_k ** (s / 2.0)) * math.sqrt(E_k)
            if math.sqrt(E_next) > bound * (1 + 1e-12):
                ok = False
                break
        if ok:
            return float(C)
    return None
