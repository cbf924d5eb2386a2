"""Damped-Newton least-squares iteration for semilinear wave control.

The error functional

    E(y, f) = 1/2 | y_tt - Lap y + g(y) - f chi_omega |^2_{L^2(Q_T)}

vanishes exactly at controlled solutions.  Each step solves the
linearized equation with potential g'(y_k) and the current residual as
source for the minimal-norm null-controlled pair (Y1, F1), then updates

    (y_{k+1}, f_{k+1}) = (y_k, f_k) - lambda_k (Y1, F1),

with lambda_k minimizing E over [0, m], m = LINE_SEARCH_BOUND (a scan of
SCAN_POINTS values, refined to a bracket of width REFINE_REL_WIDTH * m),
and (y_0, f_0) the controlled pair of the linear (g = 0) problem.  The
iteration stops once sqrt(2E) <= TOL sqrt(2E_0) or E <= E_FLOOR; only its
step cap is configured (`LSConfig`).  Its loop, `iterate`, is the outer
iteration of every method: the least-squares and Newton steps are
`newton_step`, and `baselines` passes the fixed-point steps.  The decay
estimate's constant C is unknown, so its diagnostics use DIAGNOSTIC_C.
The directional derivative satisfies E'(y,f).(Y1,F1) = 2 E(y,f) exactly
at the discrete level because (Y1, F1) satisfies the linearized equation
stencil-exactly, so -(Y1, F1) is always a descent direction; forcing
lambda = 1 recovers the classical Newton iteration.  The inner CG therefore only sets the
terminal defect of the pair, and it stops once that defect is within
1% of the Tikhonov floor (`linear_control.FLOOR_THETA`).

Along the segment E is evaluated without further PDE solves: the
updated residual is (1 - lambda) r + l(lambda) with
l = g(y - lambda Y1) - g(y) + lambda g'(y) Y1, a pointwise identity of
the shared stencils.  Where the compiled kernel loads, its two pointwise
loops (`_leapfrog.c`) form y - lambda Y1 and the squared residual around
g, with the bits of the numpy passes that serve without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _leapfrog
from .errors import BlowupError, ConfigError, InsufficientRecords, whole_number
from .fields import SpaceTimeField, StatePair, l2_qt, linf_l1, linf_lp, linf_v, v_norm
from .grids import ControlRegion, SpaceTimeGrid
from .linear_control import (ControlSolution, LinearControlProblem,
                             _free_wave_preconditioner, solve_null_control)
from .nonlinearity import Nonlinearity, beta_star
from .solver import _level_args, residual_field


@dataclass(frozen=True)
class TargetProblem:
    """Steering problem: drive `initial` to `target` on grid with support region.

    Frozen, so the one preconditioner its inner solves share never goes stale.
    """

    grid: SpaceTimeGrid
    region: ControlRegion
    initial: StatePair
    target: StatePair
    eps_reg: float | None = None            # inner Tikhonov parameter, None -> min(dx)^2
    cg_tol: float = 1e-8
    cg_max_iter: int = 500

    def __post_init__(self):
        # the inner settings are checked now, not at the first solve
        self._inner(None, None, self.initial, self.target)

    def _inner(self, potential, source, initial, target) -> LinearControlProblem:
        return LinearControlProblem(
            self.grid, self.region, potential=potential, source=source,
            initial=initial, target=target, eps_reg=self.eps_reg,
            cg_tol=self.cg_tol, cg_max_iter=self.cg_max_iter)

    @cached_property
    def _precond(self):
        """P = G(0) + eps I of `linear_control` (None with eps = 0), built at
        the first solve: `check` builds problems it never solves."""
        eps = self._inner(None, None, self.initial, self.target).effective_eps
        return _free_wave_preconditioner(self.grid, self.region, eps)

    def solve(self, potential, source, initial, target, floor=False) -> ControlSolution:
        """The null-controlled solution of the linear problem with this
        potential, source and data, preconditioned with the shared P and,
        with floor, stopped at the Tikhonov floor (`solve_null_control`)."""
        problem = self._inner(potential, source, initial, target)
        return solve_null_control(problem, floor, self._precond)


DIVERGENCE_THRESHOLD = 1e6            # on |y|_{Linf(L1)}, shared by all methods
STEP_TOL = 1e-10                      # stagnated: a step moved y by <= STEP_TOL max(1, |y|)
SCAN_POINTS = 33                      # uniform line-search scan over [0, m]
REFINE_REL_WIDTH = 1e-3               # golden-section bracket width, relative to m
LINE_SEARCH_BOUND = 2.0               # m: lambda_k minimizes E over [0, m]
TOL = 1e-8                            # stop when sqrt(2E) <= TOL * sqrt(2E_0) ...
E_FLOOR = 1e-20                       # ... or E <= E_FLOOR, for every method
DIAGNOSTIC_C = 1.0                    # the paper's unknown C, for diagnostics only


@dataclass
class LSConfig:
    """The iteration config of every method: its outer step cap.  Its stop
    on E is fixed; tol and e_floor are class constants, not fields."""

    max_outer: int = 50
    tol = TOL
    e_floor = E_FLOOR

    def __post_init__(self):
        self.max_outer = whole_number("max_outer", self.max_outer)


def reached_tolerance(E: float, E0: float) -> bool:
    """The stop on E that every method applies; never met by a nonfinite E."""
    return math.isfinite(E) and (math.sqrt(2 * E) <= TOL * math.sqrt(2 * E0) or E <= E_FLOOR)


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
    step_delta: float = math.nan      # fixed-point |y_{k+1} - y_k|_{Linf(L1)}, nan for Newton
    inner_residuals: list = field(default_factory=list)   # CG history, verbose export


@dataclass
class LSResult:
    records: list
    y: SpaceTimeField
    f: SpaceTimeField
    status: str                        # converged | stagnated | cap_reached | diverged | inner_failure
    E0: float
    M_run: float
    method: str = "least_squares"


def _energy(r: SpaceTimeField) -> float:
    """1/2 |r|^2 in the trapezoidal L^2(Q_T) norm; inf once the square
    leaves float64 (|r| above about 1.3e154)."""
    try:
        return 0.5 * l2_qt(r) ** 2
    except OverflowError:
        return math.inf


def compute_E(y: SpaceTimeField, f: SpaceTimeField | None, g: Nonlinearity,
              region: ControlRegion | None) -> float:
    """E = 1/2 |residual|^2 in the trapezoidal L^2(Q_T) norm."""
    return _energy(residual_field(y, f, g, region))


def _newton_pair(problem: TargetProblem, gp: SpaceTimeField, r: SpaceTimeField):
    """Null-controlled pair of the linearized equation with potential gp = g'(y)
    and source r, CG stopped at the Tikhonov floor.

    The pair satisfies the linearized equation stencil-exactly however far
    CG has run, so the floor stop moves only its terminal defect, by at
    most a factor (1 + FLOOR_THETA) / (1 - FLOOR_THETA) (see `linear_control`).
    """
    grid = problem.grid
    A = None if np.all(gp.values == 0.0) else gp
    return problem.solve(A, r, StatePair.zeros(grid), StatePair.zeros(grid), floor=True)


def descent_direction(problem: TargetProblem, g: Nonlinearity, y: SpaceTimeField,
                      f: SpaceTimeField):
    """Null-controlled solution of the linearized residual equation.

    Returns (Y1, F1, inner_report, residual); the pair satisfies
    Y1_tt - Lap Y1 + g'(y) Y1 = F1 chi + residual(y, f) with zero data,
    so E'(y, f).(Y1, F1) = 2 E(y, f).
    """
    r = residual_field(y, f, g, problem.region)
    inner = _newton_pair(problem, SpaceTimeField(problem.grid, g.dg(y.values)), r)
    return inner.trajectory, inner.control, inner, r


@dataclass
class LineSearchResult:
    lam: float
    E_new: float
    status: str           # ok | stagnated | converged (already at a zero of E)


def _interior_runs(grid: SpaceTimeGrid):
    """Where the interior nodes of a level lie, as the line-search loops of
    `_leapfrog.c` read them: (first node, runs, run stride, nodes per run)."""
    if grid.dim == 1:
        (nx,) = grid.shape
        return 1, 1, nx, nx - 2
    nx, ny = grid.shape
    return ny + 1, nx - 2, ny, ny - 2


def _loop_buffer(values, shape) -> np.ndarray:
    """values as a C-contiguous float64 array (copied only when it is not
    one) for the line-search loops; ValueError unless it has shape."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.shape != shape:
        raise ValueError(f"line-search terms must have shape {shape}, not {v.shape}")
    return v


def _segment_energy(y: SpaceTimeField, r: SpaceTimeField, Y1: SpaceTimeField,
                    g: Nonlinearity):
    """lam -> E along (y, f) - lam (Y1, F1), from the residual r of (y, f).

    The residual there is (1 - lam) r + ((g(y - lam Y1) - g(y)) + lam g'(y) Y1),
    in this order, on the interior nodes of levels 1..nt-1; E is 1/2 cell
    times np.sum of its square, so E(0) is exactly 1/2 cell sum r^2.  Two
    buffers are allocated once.  When the compiled kernel loads, its two
    loops form the point y - lam Y1 and the squared residual, reading the
    fields through their level strides; else eight numpy passes do.  g runs
    in numpy on both paths, and both write the same bits.  An E whose
    square or sum overflows reads inf, without a warning.  The fields are
    checked here, before any evaluation: a kernel field of the wrong dtype
    or shape raises ValueError.
    """
    grid = y.grid
    sl = (slice(1, -1),) * (grid.dim + 1)
    y_mid = y.values[sl]
    Y_mid = Y1.values[sl]
    r_mid = r.values[sl]
    gy = g.g(y_mid)
    gpyY = g.dg(y_mid) * Y_mid
    cell = grid.dt * math.prod(grid.dx)
    work = np.empty(y_mid.shape)
    val = np.empty(y_mid.shape)

    lib = _leapfrog.LOADER.load()
    if lib is None:
        def E_at(lam: float) -> float:
            # g's result is read, never written, so a g that returns its
            # argument is safe
            np.multiply(Y_mid, lam, out=work)
            np.subtract(y_mid, work, out=work)
            np.subtract(g.g(work), gy, out=val)
            np.multiply(gpyY, lam, out=work)
            np.add(val, work, out=val)
            np.multiply(r_mid, 1.0 - lam, out=work)
            np.add(work, val, out=val)
            with np.errstate(over="ignore"):
                np.square(val, out=val)
                return 0.5 * cell * float(np.sum(val))
        return E_at

    shape = work.shape
    gy, gpyY = _loop_buffer(gy, shape), _loop_buffer(gpyY, shape)
    at = (grid.nt, *_interior_runs(grid))
    point_args = (*_level_args(grid, y.values), *_level_args(grid, Y1.values))
    r_args = _level_args(grid, r.values)
    work_at, val_at, gy_at, gpyY_at = (a.ctypes.data for a in (work, val, gy, gpyY))
    # the loops read these arrays by address: E_at's default argument
    # keeps them alive as long as E_at is
    held = (y.values, Y1.values, r.values, work, val, gy, gpyY)

    def E_at(lam: float, held=held) -> float:
        lib.segment_point(work_at, *at, lam, *point_args)
        gw = _loop_buffer(g.g(work), shape)
        lib.segment_value(val_at, *at, lam, *r_args, gw.ctypes.data, gy_at, gpyY_at)
        with np.errstate(over="ignore"):
            return 0.5 * cell * float(np.sum(val))
    return E_at


def line_search(y: SpaceTimeField, r: SpaceTimeField, Y1: SpaceTimeField,
                g: Nonlinearity, m: float) -> LineSearchResult:
    """argmin over [0, m] of E along -(Y1, F1): a uniform scan of SCAN_POINTS
    values, then golden-section refinement to a bracket of REFINE_REL_WIDTH * m.

    Every evaluation combines cached fields pointwise (no PDE solve), in the
    compiled kernel's two loops when it loads (`_segment_energy`).  Returns
    the best evaluated point, so E never increases at the accepted step; a
    minimizer at 0 signals stagnation.  An E that overflows reads inf and is
    never the minimum while E(0) is finite.
    """
    E_at = _segment_energy(y, r, Y1, g)

    lams = np.linspace(0.0, m, SCAN_POINTS)
    vals = [E_at(la) for la in lams]
    if vals[0] == 0.0:
        return LineSearchResult(0.0, 0.0, "converged")
    i = int(np.argmin(vals))
    best_lam, best_E = float(lams[i]), vals[i]

    a = float(lams[max(i - 1, 0)])
    b = float(lams[min(i + 1, SCAN_POINTS - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = E_at(x1), E_at(x2)
    while (b - a) > REFINE_REL_WIDTH * m:
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


def _exp_c_square(c: float, x: float) -> float:
    # exp(c x^2): the observability constants grow doubly exponentially;
    # report inf instead of crashing when x^2 or the exp leaves float range
    try:
        return math.exp(c * x ** 2)
    except OverflowError:
        return math.inf


def _decay_constant(C: float, s: float, seminorm: float, d: float) -> float:
    # C / ((1+s) sqrt 2) [g']_s d^(1+s): exactly 0 for a zero seminorm, where
    # d may be inf (0 * inf reads nan), and inf where d^(1+s) leaves float range
    if seminorm == 0:
        return 0.0
    try:
        return C / ((1 + s) * math.sqrt(2.0)) * seminorm * d ** (1 + s)
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
    out = {"d_of_y": C * _exp_c_square(C, gprime_linf_ld),
           "beta_star_s": beta_star(s, C) if s > 0 else 0.0}
    if g.seminorm is not None:
        c_of_y = _decay_constant(C, s, g.seminorm, out["d_of_y"])
        out["c_of_y"] = c_of_y
        out["e_k"] = c_of_y * E ** (s / 2.0) if c_of_y > 0 else 0.0
    else:
        out["c_of_y"] = None
        out["e_k"] = None
    if g.alpha is not None and g.beta is not None and g.seminorm is not None:
        C3 = 2.0 * C * max(1.0, _exp_c_square(2.0 * C, g.alpha) * domain_measure)
        d_M = C3 * (1.0 + M / domain_measure) ** (2.0 * C * g.beta ** 2)
        out["d_M"] = d_M
        out["c_M"] = _decay_constant(C, s, g.seminorm, d_M)
    else:
        out["d_M"] = None
        out["c_M"] = None
    return out


def initialize(problem: TargetProblem):
    """Starting pair: the controlled solution of the linear (g = 0) problem,
    potential 0 and source 0.

    CG stops at the Tikhonov floor, as in every Newton step.  Its
    preconditioner, the problem's P = G(0) + eps I of `linear_control`, is
    this solve's operator where P's band is every mode (every committed
    1D config), so the solve then takes one CG iteration.
    """
    return problem.solve(None, None, problem.initial, problem.target, floor=True)


def record_inner(rec: IterateRecord, sol: ControlSolution):
    """Row k's record of the inner solve its step made."""
    rec.inner_defect, rec.inner_cg_iters = sol.defect, sol.cg_iterations
    rec.inner_converged, rec.inner_residuals = sol.converged, sol.residual_history


def newton_step(problem: TargetProblem, g: Nonlinearity, rec: IterateRecord, y, f,
                terminal, r, gp, force_lambda: float | None = None):
    """The paper's step: (y, f) - lambda (Y1, F1) with (Y1, F1) the floor-stopped
    pair of `descent_direction` and lambda the line search's (or force_lambda)."""
    inner = _newton_pair(problem, gp, r)
    record_inner(rec, inner)
    Y1 = inner.trajectory
    rec.F1_qT, rec.Y1_linf_V = inner.control_norm, linf_v(Y1)
    if force_lambda is None:
        ls = line_search(y, r, Y1, g, LINE_SEARCH_BOUND)
        rec.lam = ls.lam
        if ls.status == "stagnated":
            return "stagnated"
    else:
        rec.lam = float(force_lambda)
    lam = rec.lam
    return (SpaceTimeField(problem.grid, y.values - lam * Y1.values),
            SpaceTimeField(problem.grid, f.values - lam * inner.control.values),
            terminal - inner.terminal.scaled(lam))


def iterate(problem: TargetProblem, g: Nonlinearity, config: LSConfig | None, step,
            method: str) -> LSResult:
    """The outer iteration of every method, from the g = 0 controlled pair.

    Row k records y_k and tests the stops in the order converged
    (`reached_tolerance`), diverged (a nonfinite E, or |y|_{Linf(L1)} above
    DIVERGENCE_THRESHOLD), stagnated (the last step moved y by at most
    STEP_TOL max(1, |y|_{Linf(L1)})) and cap_reached.  Otherwise
    step(problem, g, rec, y, f, terminal, r, gp), with r the residual of
    (y, f) and gp = g'(y), records its inner solve on row k and returns the
    next (y, f, terminal), or a status that ends the run.  A nonfinite field
    (ConfigError) or a blown-up march (BlowupError) ends it inner_failure.
    """
    config = config or LSConfig()
    grid = problem.grid
    start = initialize(problem)
    y, f, terminal = start.trajectory, start.control, start.terminal
    records: list[IterateRecord] = []
    E0 = None
    M_run = 0.0
    for k in range(config.max_outer + 1):
        rec = IterateRecord(k=k, E=math.nan, sqrt_E=math.nan)
        records.append(rec)
        try:
            r = residual_field(y, f, g, problem.region)
            gp = SpaceTimeField(grid, g.dg(y.values))     # also the Newton potential
        except ConfigError:
            status = "inner_failure"
            break
        E = _energy(r)
        E0 = E if E0 is None else E0
        rec.E, rec.sqrt_E = float(E), math.sqrt(E)
        rec.y_linf_L1 = linf_l1(y)
        M_run = max(M_run, rec.y_linf_L1)
        rec.gprime_linf_ld = linf_lp(gp, float(grid.dim))
        if g.seminorm is not None and g.s > 0:
            diag = diagnostic_constants(E, rec.gprime_linf_ld, g, DIAGNOSTIC_C,
                                        M_run, grid.domain_measure)
            rec.lam_tilde = analytic_lambda(E, diag["c_of_y"], g.s)
        rec.term_defect_V = v_norm(terminal - problem.target)

        moved = records[k - 1].step_delta if k else math.nan
        if reached_tolerance(E, E0):
            status = "converged"
        elif not math.isfinite(E) or rec.y_linf_L1 > DIVERGENCE_THRESHOLD:
            status = "diverged"
        elif moved <= STEP_TOL * max(1.0, rec.y_linf_L1):
            status = "stagnated"      # a fixed point of the step, E above the stop
        elif k == config.max_outer:
            status = "cap_reached"
        else:
            try:
                nxt = step(problem, g, rec, y, f, terminal, r, gp)
            except (BlowupError, ConfigError):
                nxt = "inner_failure"
            if not isinstance(nxt, str):
                y, f, terminal = nxt
                continue
            status = nxt
        break
    return LSResult(records=records, y=y, f=f, status=status,
                    E0=float(E0 if E0 is not None else math.nan), M_run=M_run, method=method)


def ls_solve(problem: TargetProblem, g: Nonlinearity,
             config: LSConfig | None = None) -> LSResult:
    """The damped least-squares iteration: `iterate` with `newton_step`.

    The inner solves differ only in potential and right-hand side, so
    each is preconditioned with the problem's closed-form
    P = G(0) + eps I of `linear_control`, exact on its band of modes
    (every mode on each committed 1D config with eps > 0, the top 483 of
    1444 on smoke_2d) and divided by its diagonal off it.
    """
    return iterate(problem, g, config, newton_step, "least_squares")


ORDER_WINDOW = 4                      # pairs in the convergence-order fit
C_CANDIDATES = np.logspace(-3, 3, 121)  # log grid of `smallest_sufficient_C`


@dataclass
class OrderEstimate:
    order: float
    fit_residual: float


def estimate_order(records) -> OrderEstimate:
    """Convergence order: slope of ln sqrt(E_{k+1}) against ln sqrt(E_k).

    Uses the last ORDER_WINDOW strictly-decreasing consecutive pairs with E
    above 1e3 * machine epsilon (floor effects excluded).
    """
    E = [rec.E for rec in records]
    floor = 1e3 * np.finfo(float).eps
    xs, ys = [], []
    for a, b in zip(E[:-1], E[1:]):
        if a > floor and b > floor and 0.0 < b < a:
            xs.append(0.5 * math.log(a))
            ys.append(0.5 * math.log(b))
    if len(xs) < 2:
        raise InsufficientRecords(
            f"need at least 2 usable decreasing pairs above the floor, got {len(xs)}")
    xs = np.asarray(xs[-ORDER_WINDOW:])
    ys = np.asarray(ys[-ORDER_WINDOW:])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = math.sqrt(float(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return OrderEstimate(order=float(slope), fit_residual=residual)


def smallest_sufficient_C(records, g: Nonlinearity) -> float | None:
    """Smallest C of C_CANDIDATES making the one-step decay bound

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
    for C in C_CANDIDATES:
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
