import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecontrol as wc
from wavecontrol import cli, least_squares, linear_control
from wavecontrol.errors import BlowupError, ConfigError, InsufficientRecords
from wavecontrol.least_squares import IterateRecord, initialize
from wavecontrol.nonlinearity import Nonlinearity

from conftest import CONFIGS, MARCH_KERNELS, load_json, march_kernel, needs_cc


def small_linear_problem(**opts):
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    return wc.LinearControlProblem(grid, wc.interval_region(grid, 0.8, 1.0), **opts)


@pytest.mark.parametrize("solve", [wc.ls_solve, wc.picard_solve])
@pytest.mark.parametrize("part", ["potential", "source"])
def test_outer_run_rejects_a_problem_with_potential_or_source(monkeypatch, solve, part):
    # every solve of an outer run sets its own potential and source, so a
    # problem's own would be dropped silently: rejected before any solve
    solves = []
    monkeypatch.setattr(least_squares, "solve_null_control",
                        lambda *args: solves.append(args))
    problem = small_linear_problem()
    problem = dataclasses.replace(problem, **{part: wc.SpaceTimeField.zeros(problem.grid)})
    with pytest.raises(ConfigError, match="must carry neither"):
        solve(problem, wc.builtin("lipschitz_sat", kappa=1.0))
    assert solves == []


def config_with_fixed_point_cap(max_outer):
    cfg = load_json(CONFIGS / "newton_equiv.json")
    cfg["fixed_point"] = {"max_outer": max_outer}
    return cfg


@pytest.mark.parametrize("build", [
    lambda: wc.LSConfig(max_outer=-1),          # cap_reached with no records
    # build_problem does not validate; the picard and variant cap is checked
    lambda: cli.build_problem(config_with_fixed_point_cap(-1)),
    lambda: small_linear_problem(cg_tol=math.nan),     # 500 iterations, then unconverged
    lambda: small_linear_problem(cg_max_iter=-3),      # the zero control
    lambda: small_linear_problem(eps_reg=math.nan),
], ids=["ls.max_outer=-1", "fp.max_outer=-1", "cg_tol=nan", "cg_max_iter=-3", "eps_reg=nan"])
def test_bad_library_input_is_a_config_error(build):
    with pytest.raises(ConfigError):
        build()


def test_whole_float_counts_become_ints():
    # JSON may write a count as 2.0; range() in the outer loops needs an int
    assert type(wc.LSConfig(max_outer=2.0).max_outer) is int
    assert type(cli.build_problem(config_with_fixed_point_cap(2.0))[3].max_outer) is int
    assert type(small_linear_problem(cg_max_iter=7.0).cg_max_iter) is int
    grid = wc.SpaceTimeGrid((1.0,), (51.0,), T=1.0, nt=60.0)
    assert type(grid.shape[0]) is int and type(grid.nt) is int


def test_compute_E_of_linear_controlled_pair_is_floor_level(small_problem):
    g = wc.builtin("zero")
    sol = initialize(small_problem)
    E = wc.compute_E(sol.trajectory, sol.control, g, small_problem.region)
    assert E <= 1e-20


def test_compute_E_quadrature_of_unit_residual():
    # E = 1/2 |r|^2: a unit field on Q_T with |Q_T| = 1 integrates to 1/2
    grid = wc.SpaceTimeGrid((1.0,), (51,), T=1.0, nt=100)
    ones = wc.SpaceTimeField.constant(grid, 1.0)
    assert 0.5 * wc.l2_qt(ones) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_compute_E_against_independent_double_sum(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.8)
    rng = np.random.default_rng(9)
    grid = small_problem.grid
    y = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    f = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    E = wc.compute_E(y, f, g, small_problem.region)
    # oracle: accumulate trapezoid weights with fsum, an independent path
    r = wc.residual_field(y, f, g, small_problem.region)
    dt, dx = grid.dt, grid.dx[0]
    tw = np.full(grid.nt + 1, dt); tw[0] = tw[-1] = dt / 2
    xw = np.full(grid.shape[0], dx); xw[0] = xw[-1] = dx / 2
    total = math.fsum(tw[n] * xw[j] * r.values[n, j] ** 2
                      for n in range(grid.nt + 1) for j in range(grid.shape[0]))
    assert E == pytest.approx(0.5 * total, rel=1e-14)


def test_descent_direction_on_controlled_pair_is_zero(small_problem):
    g = wc.builtin("zero")
    sol = initialize(small_problem)
    Y1, F1, inner, r, _ = wc.descent_direction(small_problem, g, sol.trajectory, sol.control)
    assert wc.l2_qt(Y1) <= 1e-8
    assert wc.l2_qt(F1) <= 1e-8


def test_descent_identity_finite_difference(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    sol = initialize(small_problem)
    y, f = sol.trajectory, sol.control
    E = wc.compute_E(y, f, g, small_problem.region)
    Y1, F1, inner, r, _ = wc.descent_direction(small_problem, g, y, f)
    lam = 1e-4
    y2 = wc.SpaceTimeField(y.grid, y.values - lam * Y1.values)
    f2 = wc.SpaceTimeField(y.grid, f.values - lam * F1.values)
    E2 = wc.compute_E(y2, f2, g, small_problem.region)
    fd = (E2 - E) / lam
    assert abs(fd + 2 * E) <= 0.01 * 2 * E


def test_linear_g_profile_is_exact_quadratic(small_problem):
    g = wc.builtin("linear", b=0.3)
    sol = initialize(small_problem)
    y, f = sol.trajectory, sol.control
    E = wc.compute_E(y, f, g, small_problem.region)
    Y1, F1, inner, r, _ = wc.descent_direction(small_problem, g, y, f)
    for lam in (0.37, 1.0):
        y2 = wc.SpaceTimeField(y.grid, y.values - lam * Y1.values)
        f2 = wc.SpaceTimeField(y.grid, f.values - lam * F1.values)
        E2 = wc.compute_E(y2, f2, g, small_problem.region)
        if lam == 1.0:
            assert E2 <= 1e-18   # exact cancellation up to roundoff
        else:
            assert E2 == pytest.approx((1 - lam) ** 2 * E, rel=1e-10)


def test_line_search_segment_matches_fresh_E(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=1.0)
    sol = initialize(small_problem)
    y, f = sol.trajectory, sol.control
    Y1, F1, inner, r, gp = wc.descent_direction(small_problem, g, y, f)
    res = wc.line_search(y, r, Y1, g, gp, m=2.0)
    assert res.status == "ok"
    y2 = wc.SpaceTimeField(y.grid, y.values - res.lam * Y1.values)
    f2 = wc.SpaceTimeField(y.grid, f.values - res.lam * F1.values)
    fresh = wc.compute_E(y2, f2, g, small_problem.region)
    assert fresh == pytest.approx(res.E_new, rel=1e-10, abs=1e-18)


def test_line_search_converged_at_zero_residual(small_problem):
    grid = small_problem.grid
    zero = wc.SpaceTimeField.zeros(grid)
    res = wc.line_search(zero, zero, zero, wc.builtin("zero"), zero, m=2.0)
    assert res.status == "converged" and res.lam == 0.0 and res.E_new == 0.0


LINE_SEARCH_G = {"lipschitz_sat": wc.builtin("lipschitz_sat", kappa=5.0),
                 "cubic_sat": wc.builtin("cubic_sat", R=5.0),
                 "loglimit": wc.builtin("loglimit", a=0.2, b=0.5, c=1.0),
                 "linear": wc.builtin("linear", b=0.3),
                 "zero": wc.builtin("zero")}


def potential(y, g):
    """g'(y) as the field a Newton step solves with and the line search reads."""
    return wc.SpaceTimeField(y.grid, g.dg(y.values))


def segment_E(y, r, Y1, g):
    """E along the segment as the plain expression, a fresh array per term:
    the reference the line search must match bit for bit."""
    grid = y.grid
    sl = (slice(1, -1),) * (grid.dim + 1)
    y_mid, r_mid, Y_mid = y.values[sl], r.values[sl], Y1.values[sl]

    def E_at(lam):
        val = (1.0 - lam) * r_mid + (g.g(y_mid - lam * Y_mid) - g.g(y_mid)
                                     + lam * (g.dg(y_mid) * Y_mid))
        return 0.5 * grid.dt * math.prod(grid.dx) * float(np.sum(val * val))
    return E_at


# g(r) = r hands back the array it was given
IDENTITY = Nonlinearity("identity", lambda r: r, lambda r: np.ones_like(r),
                        s=1.0, seminorm=0.0, alpha=1.0, beta=0.0)


def random_segment(dim, scale, r_exp, seed, nodes=None):
    # random fields in place of a descent direction: no PDE solve
    grid = wc.SpaceTimeGrid((1.0,) * dim, nodes or (9,) * dim, T=1.0, nt=12)
    rng = np.random.default_rng(seed)
    shape = (grid.nt + 1,) + grid.shape
    y, Y1 = (wc.SpaceTimeField(grid, scale * rng.standard_normal(shape)) for _ in range(2))
    r = wc.SpaceTimeField(grid, 10.0 ** r_exp * scale * rng.standard_normal(shape))
    return y, r, Y1


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), name=st.sampled_from(sorted(LINE_SEARCH_G)),
       m=st.floats(1.0, 4.0), scale=st.floats(0.1, 3.0), r_exp=st.integers(-12, 0),
       seed=st.integers(0, 2**16))
def test_line_search_never_raises_E(dim, name, m, scale, r_exp, seed):
    # a residual far below the step's curvature term makes the search
    # stagnate, so both outcomes are drawn
    y, r, Y1 = random_segment(dim, scale, r_exp, seed)
    g = LINE_SEARCH_G[name]
    res = wc.line_search(y, r, Y1, g, potential(y, g), m)
    E_at = segment_E(y, r, Y1, g)

    assert 0.0 <= res.lam <= m
    assert res.E_new <= E_at(0.0)
    assert res.E_new == E_at(res.lam)
    assert (res.status == "stagnated") == (res.lam == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_line_search_leaves_its_inputs_unchanged(dim):
    y, r, Y1 = random_segment(dim, 8.0, 0, seed=3)
    g = LINE_SEARCH_G["cubic_sat"]
    gp = potential(y, g)
    before = [f.values.copy() for f in (y, r, Y1, gp)]
    wc.line_search(y, r, Y1, g, gp, 2.0)
    for field, old in zip((y, r, Y1, gp), before):
        assert np.array_equal(field.values, old)


@pytest.mark.parametrize("dim", [1, 2])
def test_line_search_with_g_returning_its_argument(dim):
    # IDENTITY hands back the evaluation buffer itself, which must not be
    # overwritten before g's result is read
    y, r, Y1 = random_segment(dim, 1.0, -1, seed=5)
    res = wc.line_search(y, r, Y1, IDENTITY, potential(y, IDENTITY), 2.0)
    assert res.status == "ok"
    assert res.E_new == segment_E(y, r, Y1, IDENTITY)(res.lam)
    linear = wc.builtin("linear", b=1.0)
    same = wc.line_search(y, r, Y1, linear, potential(y, linear), 2.0)
    assert (same.lam, same.E_new) == (res.lam, res.E_new)


def newton_segment(dim, seed):
    """A segment late in a Newton solve: a small residual r, and a
    direction Y1 of r's size that nearly cancels it at lam = 1."""
    y, r, _ = random_segment(dim, 1.0, -6, seed)
    noise = np.random.default_rng(seed + 1).standard_normal(r.values.shape)
    return y, r, wc.SpaceTimeField(y.grid, r.values * (1.0 + 1e-3 * noise))


def keep_every_point(lams, *args):
    return np.zeros(len(lams), dtype=bool)


def evaluated_points(y, r, Y1, g, m=2.0):
    """(every lam at which line_search evaluates E, in order, and its
    (lam, E_new, status)), counted where `_segment_energy` hands E_at out,
    so on every path of E_at."""
    lams = []
    energy = least_squares._segment_energy

    def recording(*args):
        E_at, ruled_out = energy(*args)
        return (lambda lam: lams.append(float(lam)) or E_at(lam)), ruled_out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(least_squares, "_segment_energy", recording)
        res = least_squares.line_search(y, r, Y1, g, potential(y, g), m)
    return lams, (res.lam, res.E_new, res.status)


def scan_against_full(y, r, Y1, g, m=2.0):
    """(scan points line_search evaluates, its (lam, E_new, status), and
    those of a search with every scan point evaluated)."""
    got_lams, got = evaluated_points(y, r, Y1, g, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(least_squares, "_ruled_out", keep_every_point)
        full_lams, full = evaluated_points(y, r, Y1, g, m)
    # both make the same golden-section evaluations, so their counts differ
    # by the scan points ruled out
    scanned = least_squares.SCAN_POINTS - (len(full_lams) - len(got_lams))
    return scanned, got, full


@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(LINE_SEARCH_G))
def test_ruled_out_scan_points_leave_the_search_unchanged(kernel, dim, name):
    # the same (lam, E_new, status) as a full scan, on segments far from
    # and close to a zero of E
    segments = [(random_segment(dim, scale, r_exp, seed), False)
                for scale, r_exp, seed in ((0.5, 0, 1), (2.0, -1, 2), (3.0, -6, 3), (1.0, -12, 4))]
    segments += [(newton_segment(dim, seed), True) for seed in (5, 6)]
    g = LINE_SEARCH_G[name]
    for segment, newton in segments:
        with march_kernel(kernel):
            scanned, got, full = scan_against_full(*segment, g)
        assert got == full
        if g.seminorm is None:
            assert scanned == least_squares.SCAN_POINTS
        elif newton:
            assert scanned < least_squares.SCAN_POINTS


@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("m", [2.0, 32 / 16.5])
def test_scan_points_within_rounding_of_the_minimum_are_kept(kernel, m):
    # linear g: E(lam) = (1 - lam)^2 E(0) but for rounding, so the bracket
    # is as narrow as the allowance lets it be.  With r at 1e-16 of y, the
    # rounding of g's terms makes E noise near lam = 1, and its argmin
    # falls on any of the scan points 13..18; without its allowance the
    # rule rules that argmin out.  With m = 32 / 16.5, lam = 1 lies midway
    # between two scan points
    g = LINE_SEARCH_G["linear"]
    for seed in range(12):
        for r_exp in (0, -8, -16):
            y, r, Y1 = random_segment(1, 1.0, r_exp, seed)
            with march_kernel(kernel):
                _, got, full = scan_against_full(y, r, Y1, g, m)
            assert got == full


@pytest.mark.parametrize("case", ["nonfinite norm", "hi above 2^400", "nodes above the cap"])
def test_full_scan_where_the_bracket_does_not_hold(case):
    y, r, Y1 = newton_segment(1, seed=5)
    g = LINE_SEARCH_G["lipschitz_sat"]
    assert scan_against_full(y, r, Y1, g)[0] < least_squares.SCAN_POINTS
    with pytest.MonkeyPatch.context() as mp:
        if case == "nonfinite norm":
            values = Y1.values.copy()
            values[4, 5] = 1e200              # its square overflows
            Y1 = wc.SpaceTimeField(y.grid, values)
        elif case == "hi above 2^400":
            values = r.values.copy()
            values[4, 5] = 2.0 ** 450
            r = wc.SpaceTimeField(y.grid, values)
        else:
            mp.setattr(least_squares, "_BRACKET_NODES", r.values[1:-1, 1:-1].size - 1)
        scanned, got, full = scan_against_full(y, r, Y1, g)
    assert scanned == least_squares.SCAN_POINTS and got == full


# not square in 2D, so the loops' runs and columns cannot be swapped unseen
SEGMENT_NODES = {1: (11,), 2: (9, 6)}


def search_points(y, r, Y1, g, m=2.0):
    """Every lam a full scan evaluates E at in one line search: the
    SCAN_POINTS scan, then the golden-section points, which depend only on
    the scan's argmin."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(least_squares, "_ruled_out", keep_every_point)
        lams, _ = evaluated_points(y, r, Y1, g, m)
    scan = [float(lam) for lam in np.linspace(0.0, m, least_squares.SCAN_POINTS)]
    assert lams[:least_squares.SCAN_POINTS] == scan
    return lams


def evaluations(kernel, y, r, Y1, g, lams):
    """(lam, E) at each of lams, from `_segment_energy` on one kernel."""
    with march_kernel(kernel):
        E_at, _ = least_squares._segment_energy(y, r, Y1, g, potential(y, g))
        return [(lam, E_at(lam)) for lam in lams]


def half_cell_sum_r2(r):
    grid = r.grid
    r_mid = r.values[(slice(1, -1),) * (grid.dim + 1)]
    return 0.5 * grid.dt * math.prod(grid.dx) * float(np.sum(np.square(r_mid)))


def bits(evaluated):
    """(lam, E) pairs with E as its exact hex form, so that NaN compares."""
    return [(lam, float(E).hex()) for lam, E in evaluated]


def compiled_paths(g):
    """The compiled E_at's paths for g: for cubic_sat the fused loop, and
    the two loops around numpy's g that serve every other g."""
    if g.cube_radius is None:
        return [g]
    return [g, dataclasses.replace(g, cube_radius=None)]


@needs_cc
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(LINE_SEARCH_G) + ["identity"])
def test_compiled_and_numpy_E_give_the_same_bits(dim, name):
    g = IDENTITY if name == "identity" else LINE_SEARCH_G[name]
    y, r, Y1 = random_segment(dim, 2.0, -1, seed=11, nodes=SEGMENT_NODES[dim])
    lams = search_points(y, r, Y1, g)
    assert len(lams) > least_squares.SCAN_POINTS      # golden-section points too
    numpy = evaluations("numpy", y, r, Y1, g, lams)
    for h in compiled_paths(g):
        assert evaluations("compiled", y, r, Y1, h, lams) == numpy
    # the stagnation test compares against E(0) = 1/2 |r|^2
    assert numpy[0] == (0.0, half_cell_sum_r2(r))


def cubic_segment(dim, case):
    """A cubic_sat segment (R = 5) with max |y| + 2 max |Y1| below R but for
    case: a node with y = 4.9 and Y1 = -1, a node that reaches |w| = R at
    lam = 2 with max |y| + 2 max |Y1| = R, an inf or a NaN node, or Y1
    read in reversed time."""
    y, r, Y1 = random_segment(dim, 0.4, -1, seed=17, nodes=SEGMENT_NODES[dim])
    y_values, Y_values = y.values.copy(), Y1.values.copy()
    node = (5,) + (3,) * dim
    if case == "outside":
        y_values[node], Y_values[node] = 4.9, -1.0
    elif case == "edge":
        np.clip(Y_values, -0.5, 0.5, out=Y_values)
        y_values[node], Y_values[node] = 4.0, -0.5
    elif case == "inf y":
        y_values[node] = math.inf
    elif case == "nan Y1":
        Y_values[node] = math.nan
    # the line search reads its fields unchecked, a nonfinite y or Y1 among them
    y, Y1 = (wc.SpaceTimeField._trusted(y.grid, v) for v in (y_values, Y_values))
    if case == "reversed Y1":
        Y1 = Y1.time_reversed()
        assert Y1.values.strides[0] < 0
    return y, r, Y1


def outside_radius(y, Y1, R, lams):
    """The lams where the fused loop's bound, max |y| + |lam| max |Y1| <= R,
    fails (a nonfinite y or Y1 fails it at every lam)."""
    sl = (slice(1, -1),) * (y.grid.dim + 1)
    y_max, Y_max = (max(float(np.max(v[sl])), -float(np.min(v[sl]))) for v in (y.values, Y1.values))
    return [lam for lam in lams if not y_max + abs(lam) * Y_max <= R]


@needs_cc
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("case", ["inside", "outside", "edge", "inf y", "nan Y1",
                                  "reversed Y1"])
def test_fused_cubic_E_gives_the_bits_of_the_two_loops_and_numpy(dim, case):
    g = LINE_SEARCH_G["cubic_sat"]
    y, r, Y1 = cubic_segment(dim, case)
    lams = search_points(y, r, Y1, g)
    assert lams[0] == 0.0 and lams[least_squares.SCAN_POINTS - 1] == 2.0
    assert len(lams) > least_squares.SCAN_POINTS      # golden-section points too
    fused, two_loops = compiled_paths(g)
    numpy = bits(evaluations("numpy", y, r, Y1, g, lams))
    assert bits(evaluations("compiled", y, r, Y1, fused, lams)) == numpy
    assert bits(evaluations("compiled", y, r, Y1, two_loops, lams)) == numpy
    # g(y) once, then g only at the points where the bound fails
    calls = []
    evaluations("compiled", y, r, Y1,
                dataclasses.replace(g, g=lambda v: calls.append(1) or g.g(v)), lams)
    outside = outside_radius(y, Y1, g.cube_radius, lams)
    assert len(calls) == 1 + len(outside)
    if case in ("inside", "edge", "reversed Y1"):
        assert outside == []
    elif case == "outside":
        assert 0 < len(outside) < len(lams) and min(outside) > 0.0
    else:
        assert outside == lams
    if case == "edge":
        # the node's w = 4 - (-0.5) 2 is R itself: the cube, on both sides
        node = (5,) + (3,) * dim
        assert y.values[node] - Y1.values[node] * 2.0 == g.cube_radius
    if case == "inf y":
        # g saturates at the inf node, so E is finite; (w w) w would read inf
        assert all(math.isfinite(float.fromhex(E)) for _, E in numpy)


@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("dim", [1, 2])
def test_wrapped_cubic_g_keeps_the_fused_path(kernel, dim):
    # a traced g is a dataclasses.replace copy: it keeps cube_radius, and
    # the line search calls it once, for g(y), on either kernel
    g = LINE_SEARCH_G["cubic_sat"]
    y, r, Y1 = cubic_segment(dim, "inside")
    calls = []
    wrapped = dataclasses.replace(g, g=lambda v: calls.append(1) or g.g(v))
    with march_kernel(kernel):
        got = wc.line_search(y, r, Y1, wrapped, potential(y, g), 2.0)
        want = wc.line_search(y, r, Y1, g, potential(y, g), 2.0)
    assert len(calls) == 1
    assert (got.lam, got.E_new, got.status) == (want.lam, want.E_new, want.status)
    assert got.E_new == segment_E(y, r, Y1, g)(got.lam)


@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("dim", [1, 2])
def test_E_reads_fields_in_reversed_time(kernel, dim):
    # a time_reversed() view has a negative level stride
    y, r, Y1 = random_segment(dim, 2.0, -1, seed=13, nodes=SEGMENT_NODES[dim])
    g = LINE_SEARCH_G["cubic_sat"]
    views = [f.time_reversed() for f in (y, r, Y1)]
    assert all(v.values.strides[0] < 0 for v in views)
    copies = [wc.SpaceTimeField(y.grid, v.values.copy()) for v in views]
    lams = search_points(*copies, g)
    got = evaluations(kernel, *views, g, lams)
    assert got == evaluations(kernel, *copies, g, lams)
    assert got[0] == (0.0, half_cell_sum_r2(copies[1]))


@needs_cc
@pytest.mark.parametrize("dim", [1, 2])
def test_compiled_E_checks_the_fields_it_reads(dim):
    y, r, Y1 = random_segment(dim, 1.0, -1, seed=3, nodes=SEGMENT_NODES[dim])
    g = LINE_SEARCH_G["lipschitz_sat"]
    grid = y.grid
    gp = potential(y, g)
    unreadable = {"float32": lambda v: v.astype(np.float32),
                  "reversed nodes": lambda v: v[..., ::-1]}
    if dim == 2:
        unreadable["fortran"] = np.asfortranarray
    with march_kernel("compiled"):
        for name, bad in unreadable.items():
            for i in range(3):
                fields = [y, r, Y1]
                fields[i] = wc.SpaceTimeField._trusted(grid, bad(fields[i].values))
                with pytest.raises(ValueError):
                    least_squares._segment_energy(*fields, g, gp)
        short = wc.SpaceTimeField._trusted(grid, r.values[:-1])
        with pytest.raises(ValueError):
            least_squares._segment_energy(y, short, Y1, g, gp)
        # g of the wrong shape: the loop would read past its result
        flat = Nonlinearity("flat", lambda v: np.ravel(g.g(v))[:-1], g.dg,
                            s=1.0, seminorm=None, alpha=None, beta=None)
        with pytest.raises(ValueError):
            least_squares._segment_energy(y, r, Y1, flat, gp)[0](0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("nodes, r0", [((4,), 1e154), ((3, 4), 7e153)], ids=["square", "sum"])
def test_E_that_overflows_reads_inf_without_a_warning(kernel, nodes, r0):
    # at each of the nodes, r = r0 and g(y - lam Y1) = -(lam Y1)^3 = -lam^3 r0 / 10
    # with y = 0: the residual (1 - lam) r0 - lam^3 r0 / 10 vanishes near
    # lam = 0.92; at lam = 2 its square overflows (r0 = 1e154), or with two
    # nodes only the sum of the squares does (r0 = 7e153)
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=12)
    y = wc.SpaceTimeField.zeros(grid)
    r, Y1 = (np.zeros((grid.nt + 1,) + grid.shape) for _ in range(2))
    r[5, list(nodes)], Y1[5, list(nodes)] = r0, (r0 / 10) ** (1 / 3)
    r, Y1 = wc.SpaceTimeField(grid, r), wc.SpaceTimeField(grid, Y1)
    cube = Nonlinearity("cube", lambda v: v * v * v, lambda v: 3 * v * v,
                        s=1.0, seminorm=None, alpha=None, beta=None)
    with march_kernel(kernel):
        E_at, _ = least_squares._segment_energy(y, r, Y1, cube, potential(y, cube))
        assert E_at(2.0) == math.inf
        E0 = E_at(0.0)
        assert E0 == half_cell_sum_r2(r) and math.isfinite(E0)
        res = wc.line_search(y, r, Y1, cube, potential(y, cube), 2.0)
    assert res.status == "ok" and 0.9 < res.lam < 0.95
    assert math.isfinite(res.E_new) and res.E_new < 1e-3 * E0


def test_line_search_on_synthetic_profile():
    # the scan + golden-refinement strategy against a dense-scan oracle
    profile = lambda lam: (1 - lam) ** 2 + 0.01 * lam ** 4

    # reuse the same algorithm via a tiny shim: emulate with scan+golden
    lams = np.linspace(0, 2.0, 33)
    vals = [profile(la) for la in lams]
    i = int(np.argmin(vals))
    a, b = lams[max(i - 1, 0)], lams[min(i + 1, 32)]
    inv_phi = (math.sqrt(5) - 1) / 2
    x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f1, f2 = profile(x1), profile(x2)
    best = (lams[i], vals[i])
    while (b - a) > 1e-3 * 2.0:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = profile(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = profile(x2)
        for xx, ff in ((x1, f1), (x2, f2)):
            if ff < best[1]:
                best = (xx, ff)
    dense = np.linspace(0, 2, 10**6)
    oracle = dense[np.argmin(profile(dense))]
    assert abs(best[0] - oracle) <= 1e-3 * 2.0


def test_estimate_order_synthetic_sequences():
    def records_from_sqrtE(seq):
        return [IterateRecord(k=i, E=s * s, sqrt_E=s) for i, s in enumerate(seq)]

    quad = [0.5 ** (2 ** k) for k in range(5)]
    est = wc.estimate_order(records_from_sqrtE(quad))
    assert est.order == pytest.approx(2.0, abs=0.01)

    lin = [0.5 ** k for k in range(1, 9)]
    est = wc.estimate_order(records_from_sqrtE(lin))
    assert est.order == pytest.approx(1.0, abs=0.01)

    mid = [0.3 ** (1.5 ** k) for k in range(6)]
    est = wc.estimate_order(records_from_sqrtE(mid))
    assert est.order == pytest.approx(1.5, abs=0.05)


def test_estimate_order_requires_usable_records():
    with pytest.raises(InsufficientRecords):
        wc.estimate_order([IterateRecord(k=0, E=1.0, sqrt_E=1.0),
                           IterateRecord(k=1, E=2.0, sqrt_E=math.sqrt(2))])
    # below-floor entries are skipped
    with pytest.raises(InsufficientRecords):
        wc.estimate_order([IterateRecord(k=k, E=1e-20 / (k + 1), sqrt_E=0.0)
                           for k in range(5)])


def test_ls_solve_zero_g_converges_immediately(small_problem):
    g = wc.builtin("zero")
    res = wc.ls_solve(small_problem, g)
    assert res.status == "converged"
    assert len(res.records) == 1
    assert res.records[0].E <= 1e-20


def test_ls_solve_lipschitz_run_properties(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    res = wc.ls_solve(small_problem, g)
    assert res.status == "converged"
    # the control stays supported in omega
    outside = small_problem.region.weights == 0.0
    assert np.all(res.f.values[:, outside] == 0.0)
    E = [r.E for r in res.records]
    assert all(b < a for a, b in zip(E, E[1:]))
    lams = [r.lam for r in res.records if math.isfinite(r.lam)]
    assert all(abs(1 - la) <= 0.1 for la in lams[-3:])
    # admissible-set bookkeeping: initial data exact, terminal drift bounded
    # by the accumulated inner defects
    assert np.array_equal(res.y.values[0], small_problem.initial.position)
    inner_sum = sum(r.inner_defect for r in res.records if math.isfinite(r.inner_defect))
    start_defect = res.records[0].term_defect_V
    assert res.records[-1].term_defect_V <= start_defect + 2 * inner_sum + 1e-12


def test_ls_solve_loglimit_superlinear_order():
    from conftest import make_problem

    problem = make_problem(nx=100, nt=300, amplitude=5.0)
    g = wc.builtin("loglimit", a=0.0, b=0.0, c=2.0)
    res = wc.ls_solve(problem, g)
    assert res.status == "converged"
    assert wc.estimate_order(res.records).order >= 1.5


def test_ls_solve_records_are_complete(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    res = wc.ls_solve(small_problem, g)
    for rec in res.records[:-1]:
        assert math.isfinite(rec.E) and math.isfinite(rec.lam)
        assert math.isfinite(rec.F1_qT) and math.isfinite(rec.Y1_linf_V)
        assert math.isfinite(rec.y_linf_L1) and math.isfinite(rec.inner_defect)
        assert rec.inner_cg_iters > 0
    ks = [r.k for r in res.records]
    assert ks == sorted(set(ks))


def test_forced_lambda_matches_newton(small_problem):
    g = wc.builtin("linear", b=0.3)
    a = wc.ls_solve(small_problem, g)
    b = wc.newton_classic_solve(small_problem, g)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        for field in ("k", "E", "sqrt_E", "lam", "F1_qT", "Y1_linf_V",
                      "y_linf_L1", "inner_defect", "inner_cg_iters"):
            va, vb = getattr(ra, field), getattr(rb, field)
            assert va == vb or (math.isnan(va) and math.isnan(vb))


def test_lipschitz_default_gramian_applies(monkeypatch, configs_dir):
    # exact work counts of the preconditioned floor solves: the starting pair
    # of the g = 0 problem has P = G(0) + eps I as its operator and takes one
    # apply; the run takes 19 (1 + 6 per Newton step)
    from wavecontrol.linear_control import _gramian_rho

    problem, g, ls_cfg, _ = cli.build_problem(
        cli.load_config(configs_dir / "lipschitz_default.json"))
    applies = []
    monkeypatch.setattr("wavecontrol.linear_control._gramian_rho",
                        lambda *args: applies.append(1) or _gramian_rho(*args))
    start = initialize(problem)
    assert start.converged and start.cg_iterations == len(applies) == 1
    applies.clear()
    res = wc.ls_solve(problem, g, ls_cfg)
    assert res.status == "converged"
    assert [rec.inner_cg_iters for rec in res.records] == [6, 6, 6, 0]
    assert res.start_cg_iters == 1 and len(applies) == 19


def test_smoke_2d_gramian_applies(monkeypatch, configs_dir):
    # exact work counts where every floor solve is preconditioned with the
    # two-level P = G(0) + eps I, exact on the band of 483 of 1444 modes and
    # its diagonal off it: the starting pair takes 17 applies and the run 63
    # (17 + 23 + 23)
    from wavecontrol.linear_control import _free_wave_band, _gramian_rho

    problem, g, ls_cfg, _ = cli.build_problem(cli.load_config(configs_dir / "smoke_2d.json"))
    assert len(_free_wave_band(problem.grid)) == 483
    applies = []
    monkeypatch.setattr("wavecontrol.linear_control._gramian_rho",
                        lambda *args: applies.append(1) or _gramian_rho(*args))
    start = initialize(problem)
    assert start.converged and start.cg_iterations == len(applies) == 17
    applies.clear()
    res = wc.ls_solve(problem, g, ls_cfg)
    assert res.status == "converged"
    assert [rec.inner_cg_iters for rec in res.records] == [23, 23, 0]
    assert res.start_cg_iters == 17 and len(applies) == 63


def test_reached_tolerance_is_never_met_by_a_nonfinite_E():
    # sqrt(2 inf) <= TOL sqrt(2 inf) holds; a nonfinite E is no solution
    assert not least_squares.reached_tolerance(math.inf, math.inf)
    assert not least_squares.reached_tolerance(math.nan, 1.0)
    assert least_squares.reached_tolerance(0.0, 1.0)


def stub_step(action):
    """A step rule of `iterate` that makes no solve: it records one CG
    iteration on its row, then returns action(rec, y, f, terminal)."""
    def step(problem, g, rec, y, f, terminal, r, gp):
        rec.inner_cg_iters = 1
        return action(rec, y, f, terminal)
    return step


def never_called(problem, g, rec, y, f, terminal, r, gp):
    pytest.fail("a stopped row takes no step")


LINEAR = wc.builtin("linear", b=0.4)     # E_0 of the g = 0 pair is far above the stop


def test_loop_converged_wins_over_diverged(small_problem, monkeypatch):
    # with the threshold at 0 every row is above it: the converged row of
    # g = 0 still reads converged, and any other row diverged
    monkeypatch.setattr(least_squares, "DIVERGENCE_THRESHOLD", 0.0)
    for g, status in ((wc.builtin("zero"), "converged"), (LINEAR, "diverged")):
        res = least_squares.iterate(small_problem, g, None, never_called, "stub")
        assert res.status == status and len(res.records) == 1
        assert res.records[0].y_linf_L1 > 0.0


def test_loop_stagnates_after_a_step_that_leaves_y_unchanged(small_problem):
    def stay(rec, y, f, terminal):
        rec.step_delta = 0.0
        return y, f, terminal

    res = least_squares.iterate(small_problem, LINEAR, None, stub_step(stay), "stub")
    assert res.status == "stagnated"
    assert [rec.inner_cg_iters for rec in res.records] == [1, 0]
    assert res.records[1].E == res.records[0].E > 1e-3


@pytest.mark.parametrize("error", [BlowupError(3), ConfigError("nonfinite field values")],
                         ids=["BlowupError", "ConfigError"])
def test_loop_failed_step_is_inner_failure(small_problem, error):
    def fail(rec, y, f, terminal):
        raise error

    res = least_squares.iterate(small_problem, LINEAR, None, stub_step(fail), "stub")
    assert res.status == "inner_failure" and len(res.records) == 1


def test_nonfinite_seed_coordinates_end_the_run_inner_failure(small_problem, monkeypatch):
    # the seed of a nonfinite rho is not checked; its adjoint march raises
    # BlowupError, which ends the run inner_failure
    raised = []

    def nonfinite_cg(op, c, *args):
        return np.full_like(c, math.nan), 1, False, [1.0, math.nan]

    def step(problem, g, rec, y, f, terminal, r, gp):
        monkeypatch.setattr(linear_control, "_cg", nonfinite_cg)
        try:
            return least_squares.newton_step(problem, g, rec, y, f, terminal, r, gp)
        except Exception as exc:
            raised.append(exc)
            raise

    res = least_squares.iterate(small_problem, LINEAR, None, step, "nonfinite")
    assert res.status == "inner_failure" and len(res.records) == 1
    assert [type(exc) for exc in raised] == [BlowupError]


def test_loop_status_of_the_step_ends_the_run(small_problem):
    res = least_squares.iterate(small_problem, LINEAR, None,
                                stub_step(lambda *state: "stagnated"), "stub")
    assert res.status == "stagnated" and len(res.records) == 1


def test_loop_cap_reached_at_max_outer(small_problem):
    # steps that report no step_delta never stagnate the loop
    res = least_squares.iterate(small_problem, LINEAR, wc.LSConfig(max_outer=2),
                                stub_step(lambda rec, *state: state), "stub")
    assert res.status == "cap_reached" and res.method == "stub"
    assert [rec.inner_cg_iters for rec in res.records] == [1, 1, 0]


@pytest.mark.parametrize("solve", [wc.ls_solve, wc.variant_solve], ids=["ls", "variant"])
def test_g_prime_is_evaluated_once_per_row(small_problem, solve):
    # the loop's g'(y_k) is the Newton potential, and the line search and
    # the variant step read it: no step evaluates g' again
    calls = []
    base = wc.builtin("lipschitz_sat", kappa=2.0)
    g = dataclasses.replace(base, dg=lambda v: calls.append(1) or base.dg(v))
    res = solve(small_problem, g)
    assert res.status == "converged" and len(res.records) >= 3
    assert len(calls) == len(res.records)


@pytest.mark.parametrize("method", sorted(cli.METHOD_RUNNERS))
def test_row_k_holds_the_solve_made_from_y_k(small_problem, method):
    # one row layout for every method: rows 0..K-1 hold the inner solve
    # their step made from y_k, the last row (y_K, no step) holds none
    g = wc.builtin("lipschitz_sat", kappa=0.2)
    config = wc.LSConfig()
    res = cli.METHOD_RUNNERS[method](small_problem, g, config, config)
    assert res.status == "converged" and len(res.records) >= 3
    assert all(rec.inner_cg_iters > 0 for rec in res.records[:-1])
    assert all(math.isfinite(rec.inner_defect) for rec in res.records[:-1])
    last = res.records[-1]
    assert last.inner_cg_iters == 0 and math.isnan(last.inner_defect)
