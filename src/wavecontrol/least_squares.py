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
`newton_step`, and `baselines` passes the fixed-point steps.
The directional derivative satisfies E'(y,f).(Y1,F1) = 2 E(y,f) exactly
at the discrete level because (Y1, F1) satisfies the linearized equation
stencil-exactly, so -(Y1, F1) is always a descent direction; forcing
lambda = 1 recovers the classical Newton iteration.  The inner CG therefore only sets the
terminal defect of the pair, and it stops once that defect is within
1% of the Tikhonov floor (`linear_control.FLOOR_THETA`).

Along the segment E is evaluated without further PDE solves: the
updated residual is (1 - lambda) r + l(lambda) with
l = g(y - lambda Y1) - g(y) + lambda g'(y) Y1, a pointwise identity of
the shared stencils.  `_leapfrog.Segment` forms y - lambda Y1 and the
squared residual around g, or both in one pass where g is the cube
(`Nonlinearity.cube_radius`), in C where the kernel loads and in numpy,
with the same bits, where it does not.

The scan evaluates E only at the points that can hold its minimum
(`_ruled_out`).  Norms here are sum norms over the interior nodes, with
no cell weight.  With K = [g']_s / (1 + s), Taylor's formula and the
Holder modulus of g' give |l(lambda)| <= K |lambda Y1|^(1+s) at every
node, hence the paper's descent estimate for the exact residual e:

    | |e(lambda)| - |1 - lambda| |r| | <= T = K lambda^(1+s) | |Y1|^(1+s) |.

The computed residual differs from e by rounding.  The model: each IEEE
operation errs by at most u = 2^-53 relative, or 2^-1074 absolute on
underflow; numpy's g and g' satisfy |g^(x) - g(x)| <= tau |g(x)| and
|g'^(x) - g'(x)| <= tau (|g'(x)| + [g']_s |x|^s), tau = 2^-44
(`Nonlinearity`, `nonlinearity.EVAL_TOLERANCE`).  Then at each node the
computed residual is within

    4 tau (|1 - lambda| |r| + |g^(y)| + lambda |q| + K |lambda Y1|^(1+s)
           + lambda [g']_s y_max^s |Y1|) + 3u G (|y| + lambda |Y1|)

of e, plus 2^-1040 (1 + lambda + G) for underflow.  Here q is the
computed g'(y) Y1, y_max = max |y|, Y_max = max |Y1|, and
G = 1.01 max |g'^(y)| + 2 [g']_s (y_max + 2 lambda Y_max)^s bounds |g'|
between w = y - lambda Y1 and its rounded value w^.  The terms:

- (1 - lambda) r: two roundings.
- g(w^) - g(w): at most G |w^ - w| <= G 2.1u (|y| + lambda |Y1|).
- numpy's error on g(w^) and g(y), with
  |g(w)| <= |g(y)| + lambda |g'(y) Y1| + K |lambda Y1|^(1+s).
- numpy's error on g'(y), times lambda |Y1|.
- the rounding of the four sums and products, each u times magnitudes
  listed above: u = tau / 512, so 4 tau covers every coefficient.

Summed over the nodes (Minkowski), this bound becomes the allowance nu of
`_ruled_out`, with norms in place of magnitudes; 2^-1000 covers the
underflow term for up to 2^30 nodes.  A sum of squares formed in any
order errs by at most (nodes + 2) u relative, so every norm and the root
of E's sum err by at most eps = tau + (nodes + 2) u.  With
a = |1 - lambda| |r| and b = T + nu + 4 eps (a + T + nu), the computed
root of E's sum lies in [lo, hi] = [a - b, a + b].

A scan point is ruled out when lo > (1 + delta) min hi, delta = 2^-20,
and 1/2 cell lo^2 >= 2^-990.  The point k that attains min hi is never
ruled out.  A ruled-out sum exceeds k's by a factor (1 + delta)^2, which
the 1/2 cell scaling cannot close: two normal numbers more than 1 + 4u
apart stay apart after one rounding, and the floor keeps the ruled-out
E normal.  So a ruled-out E lies strictly above the minimum: it reads
inf, `np.argmin` returns the index a full scan would, and the
golden-section bracket, which depends only on that index, is the same.
A ruled-out lam = 0 reads inf too: the argmin is then above 0 and the
golden-section points lie strictly inside its bracket, so the search
never reports lam = 0 and never reads E(0).  Every point is evaluated
when g has no seminorm, above 2^30 nodes (eps above 2^-23), when a norm
is nonfinite (a nonfinite y or Y1 among them), or when the largest hi
exceeds 2^400 (so that no node's terms, squares or sums overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _leapfrog
from .errors import BlowupError, ConfigError, InsufficientRecords, whole_number
from .fields import SpaceTimeField, StatePair, l2_qt, linf_l1, linf_lp, linf_v, v_norm
from .grids import ControlRegion, SpaceTimeGrid
from .linear_control import ControlSolution, LinearControlProblem, solve_null_control
from .nonlinearity import EVAL_TOLERANCE, Nonlinearity
from .solver import residual_field


def solve_linear(problem: LinearControlProblem, potential, source, initial, target,
                 floor=False) -> ControlSolution:
    """The null-controlled solution of problem's linear problem with this
    potential, source and data, preconditioned with problem's P and, with
    floor, stopped at the Tikhonov floor (`solve_null_control`)."""
    inner = replace(problem, potential=potential, source=source, initial=initial,
                    target=target)
    return solve_null_control(inner, floor, problem.precond)


DIVERGENCE_THRESHOLD = 1e6            # on |y|_{Linf(L1)}, shared by all methods
STEP_TOL = 1e-10                      # stagnated: a step moved y by <= STEP_TOL max(1, |y|)
SCAN_POINTS = 33                      # uniform line-search scan over [0, m]
REFINE_REL_WIDTH = 1e-3               # golden-section bracket width, relative to m
LINE_SEARCH_BOUND = 2.0               # m: lambda_k minimizes E over [0, m]
TOL = 1e-8                            # stop when sqrt(2E) <= TOL * sqrt(2E_0) ...
E_FLOOR = 1e-20                       # ... or E <= E_FLOOR, for every method

# the scan's bracket (module docstring)
_UNIT_ROUNDOFF = 2.0 ** -53           # u
_SKIP_MARGIN = 2.0 ** -20             # delta
_BRACKET_NODES = 2 ** 30              # above this many interior nodes, a full scan


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
    F1_qT: float = math.nan
    Y1_linf_V: float = math.nan
    y_linf_L1: float = math.nan
    gprime_linf_ld: float = math.nan
    inner_defect: float = math.nan
    inner_cg_iters: int = 0
    inner_converged: bool = True
    term_defect_V: float = 0.0
    step_delta: float = math.nan      # fixed-point |y_{k+1} - y_k|_{Linf(L1)}, nan for Newton
    inner_residuals: list = field(default_factory=list)   # CG history, verbose export


@dataclass(eq=False)
class LSResult:
    records: list
    y: SpaceTimeField
    f: SpaceTimeField
    status: str                        # converged | stagnated | cap_reached | diverged | inner_failure
    M_run: float
    start_cg_iters: int = 0            # CG iterations of the start solve (`initialize`)
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


def _newton_pair(problem: LinearControlProblem, gp: SpaceTimeField, r: SpaceTimeField):
    """Null-controlled pair of the linearized equation with potential gp = g'(y)
    and source r, CG stopped at the Tikhonov floor.

    The pair satisfies the linearized equation stencil-exactly however far
    CG has run, so the floor stop moves only its terminal defect, by at
    most a factor (1 + FLOOR_THETA) / (1 - FLOOR_THETA) (see `linear_control`).
    """
    rest = StatePair.zeros(problem.grid)
    A = None if np.all(gp.values == 0.0) else gp
    return solve_linear(problem, A, r, rest, rest, floor=True)


def descent_direction(problem: LinearControlProblem, g: Nonlinearity, y: SpaceTimeField,
                      f: SpaceTimeField):
    """Null-controlled solution of the linearized residual equation.

    Returns (Y1, F1, inner_report, residual, gp); the pair satisfies
    Y1_tt - Lap Y1 + g'(y) Y1 = F1 chi + residual(y, f) with zero data,
    so E'(y, f).(Y1, F1) = 2 E(y, f), and gp = g'(y) is the potential it
    was solved with, the one `line_search` reads.
    """
    r = residual_field(y, f, g, problem.region)
    gp = SpaceTimeField(problem.grid, g.dg(y.values))
    inner = _newton_pair(problem, gp, r)
    return inner.trajectory, inner.control, inner, r, gp


@dataclass
class LineSearchResult:
    lam: float
    E_new: float
    status: str           # ok | stagnated | converged (already at a zero of E)


def _norm(a: np.ndarray) -> float:
    """Root of the sum of the squares of a, by a two-operand einsum (no
    temporary); inf where the sum overflows."""
    axes = "ijk"[:a.ndim]
    return math.sqrt(float(np.einsum(f"{axes},{axes}->", a, a)))


def _max_abs(a: np.ndarray) -> float:
    """max |a| without a temporary; NaN where a holds a NaN."""
    return max(float(np.max(a)), -float(np.min(a)))


def _bracket_norms(y_mid, Y_mid, r_mid, gy, gpyY, dg_max, s, y_max, Y_max, work):
    """The sum norms the scan's bracket reads, in the order `_ruled_out`
    unpacks them, with y_max = max |y| and Y_max = max |Y1| formed by the
    caller; work, a buffer of the interior's shape, is overwritten."""
    shape = work.shape
    with np.errstate(over="ignore", invalid="ignore"):
        np.abs(Y_mid, out=work)
        if s == 1.0:
            np.square(work, out=work)
        else:
            np.power(work, 1.0 + s, out=work)
        return (work.size, _norm(r_mid), _norm(work), _norm(np.broadcast_to(gy, shape)),
                _norm(np.broadcast_to(gpyY, shape)), dg_max, _norm(y_mid), _norm(Y_mid),
                y_max, Y_max)


def _ruled_out(lams: np.ndarray, norms, g: Nonlinearity, cell: float) -> np.ndarray:
    """True at each scan point lams whose E cannot be the minimum of the
    scan (module docstring), from the norms of `_bracket_norms`; False at
    every point where the bracket does not hold."""
    nodes, n_r, n_Ys, n_gy, n_q, dg_max, n_y, n_Y, y_max, Y_max = norms
    none = np.zeros(len(lams), dtype=bool)
    if nodes > _BRACKET_NODES or not all(map(math.isfinite, norms[1:])):
        return none
    u, tau, s, h = _UNIT_ROUNDOFF, EVAL_TOLERANCE, g.s, g.seminorm
    with np.errstate(over="ignore", invalid="ignore"):
        T = h / (1 + s) * lams ** (1 + s) * n_Ys
        G = 1.01 * dg_max + 2 * h * (y_max + 2 * lams * Y_max) ** s
        a = np.abs(1 - lams) * n_r
        nu = (4 * tau * (a + n_gy + lams * n_q + T + lams * h * y_max ** s * n_Y)
              + 3 * u * G * (n_y + lams * n_Y) + 2.0 ** -1000 * (1 + lams + G))
        eps = tau + (nodes + 2) * u
        b = T + nu + 4 * eps * (a + T + nu)
        lo, hi = a - b, a + b
        if not np.max(hi) <= 2.0 ** 400:
            return none
        return (lo > (1 + _SKIP_MARGIN) * np.min(hi)) & (0.5 * cell * lo * lo >= 2.0 ** -990)


def _segment_energy(y: SpaceTimeField, r: SpaceTimeField, Y1: SpaceTimeField,
                    g: Nonlinearity, gp: SpaceTimeField):
    """(E_at, ruled_out) along (y, f) - lam (Y1, F1), from the residual r of
    (y, f) and the potential gp = g'(y) that (Y1, F1) was solved with.

    E_at(lam) is E at lam.  The residual there is (1 - lam) r +
    ((g(y - lam Y1) - g(y)) + lam g'(y) Y1), in this order, on the interior
    nodes of levels 1..nt-1, formed by `_leapfrog.Segment` with g'(y) read
    from gp; E is 1/2 cell times np.sum of its square, so E(0) is exactly
    1/2 cell sum r^2, and reads inf, without a warning, where the sum
    overflows.  When g has a cube_radius R, the segment forms g(w) =
    (w w) w itself at every lam with max |y| + |lam| max |Y1| <= R: formed
    in float64, that bound holds every node's computed |w|, since it takes
    the point's two roundings in the same order and rounding is monotone.
    A nonfinite y or Y1 fails it.  g is called at the other lams only.

    ruled_out(lams) is `_ruled_out` at the scan points lams, from this
    segment's norms: all False when g has no seminorm.
    """
    grid = y.grid
    sl = (slice(1, -1),) * (grid.dim + 1)
    y_mid = y.values[sl]
    Y_mid = Y1.values[sl]
    r_mid = r.values[sl]
    segment = _leapfrog.Segment(grid, y.values, Y1.values, r.values, g.g(y_mid), gp.values)
    R = g.cube_radius
    if g.seminorm is not None or R is not None:
        y_max, Y_max = _max_abs(y_mid), _max_abs(Y_mid)
    cell = grid.dt * math.prod(grid.dx)

    def E_at(lam: float) -> float:
        if R is not None and y_max + abs(lam) * Y_max <= R:
            val = segment.cube(lam)
        else:
            val = segment.value(lam, g.g(segment.point(lam)))
        with np.errstate(over="ignore"):
            return 0.5 * cell * float(np.sum(val))

    def ruled_out(lams: np.ndarray) -> np.ndarray:
        if g.seminorm is None:
            return np.zeros(len(lams), dtype=bool)
        dg_max = _max_abs(gp.values[sl])
        norms = _bracket_norms(y_mid, Y_mid, r_mid, segment.gy, segment.gpY, dg_max, g.s,
                               y_max, Y_max, segment.work)
        return _ruled_out(lams, norms, g, cell)
    return E_at, ruled_out


def line_search(y: SpaceTimeField, r: SpaceTimeField, Y1: SpaceTimeField,
                g: Nonlinearity, gp: SpaceTimeField, m: float) -> LineSearchResult:
    """argmin over [0, m] of E along -(Y1, F1): a uniform scan of SCAN_POINTS
    values, then golden-section refinement to a bracket of REFINE_REL_WIDTH * m.

    gp = g'(y) is the potential (Y1, F1) was solved with; it is read, never
    written, and g' is not evaluated again.  Every evaluation combines
    cached fields pointwise (no PDE solve; `_segment_energy`: a g with a
    cube_radius must be the cube within it).  The scan evaluates only the
    points the descent estimate cannot rule out, reading inf at the others,
    with the bits of a full scan (module docstring).  Returns the best
    evaluated point, so E never increases at the accepted step; a minimizer at 0
    signals stagnation.  An E that overflows reads inf and is never the
    minimum while E(0) is finite.
    """
    E_at, ruled_out = _segment_energy(y, r, Y1, g, gp)

    lams = np.linspace(0.0, m, SCAN_POINTS)
    vals = [math.inf if skip else E_at(lam) for lam, skip in zip(lams, ruled_out(lams))]
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


def initialize(problem: LinearControlProblem):
    """Starting pair: the controlled solution of the linear (g = 0) problem,
    potential 0 and source 0.

    CG stops at the Tikhonov floor, as in every Newton step.  Its
    preconditioner, the problem's P = G(0) + eps I of `linear_control`, is
    this solve's operator where P's band is every mode (every committed
    1D config), so the solve then takes one CG iteration.  Data that the
    scheme cannot march raise ConfigError, naming the blown-up level.
    """
    try:
        return solve_linear(problem, None, None, problem.initial, problem.target, floor=True)
    except BlowupError as exc:
        raise ConfigError(f"the start solve (g = 0) blew up: {exc}") from None


def record_inner(rec: IterateRecord, sol: ControlSolution):
    """Row k's record of the inner solve its step made."""
    rec.inner_defect, rec.inner_cg_iters = sol.defect, sol.cg_iterations
    rec.inner_converged, rec.inner_residuals = sol.converged, sol.residual_history


def newton_step(problem: LinearControlProblem, g: Nonlinearity, rec: IterateRecord, y, f,
                terminal, r, gp, force_lambda: float | None = None):
    """The paper's step: (y, f) - lambda (Y1, F1) with (Y1, F1) the floor-stopped
    pair of `descent_direction` and lambda the line search's (or force_lambda)."""
    inner = _newton_pair(problem, gp, r)
    record_inner(rec, inner)
    Y1 = inner.trajectory
    rec.F1_qT, rec.Y1_linf_V = inner.control_norm, linf_v(Y1)
    if force_lambda is None:
        ls = line_search(y, r, Y1, g, gp, LINE_SEARCH_BOUND)
        rec.lam = ls.lam
        if ls.status == "stagnated":
            return "stagnated"
    else:
        rec.lam = float(force_lambda)
    lam = rec.lam
    return (SpaceTimeField(problem.grid, y.values - lam * Y1.values),
            SpaceTimeField(problem.grid, f.values - lam * inner.control.values),
            terminal - inner.terminal.scaled(lam))


def iterate(problem: LinearControlProblem, g: Nonlinearity, config: LSConfig | None, step,
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
    Every step solves with its own potential and source, so a problem that
    carries either raises ConfigError before the first solve.
    """
    if problem.potential is not None or problem.source is not None:
        raise ConfigError("the outer iteration sets each solve's potential and source: "
                          "the problem must carry neither")
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
            gp = SpaceTimeField(grid, g.dg(y.values))     # the one g'(y_k) of row k
        except ConfigError:
            status = "inner_failure"
            break
        E = _energy(r)
        E0 = E if E0 is None else E0
        rec.E, rec.sqrt_E = float(E), math.sqrt(E)
        rec.y_linf_L1 = linf_l1(y)
        M_run = max(M_run, rec.y_linf_L1)
        rec.gprime_linf_ld = linf_lp(gp, float(grid.dim))
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
    return LSResult(records=records, y=y, f=f, status=status, M_run=M_run,
                    start_cg_iters=start.cg_iterations, method=method)


def ls_solve(problem: LinearControlProblem, g: Nonlinearity,
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
