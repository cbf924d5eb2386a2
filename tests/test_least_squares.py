import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecontrol as wc
from wavecontrol import cli, least_squares
from wavecontrol.errors import BlowupError, ConfigError, InsufficientRecords
from wavecontrol.least_squares import IterateRecord, initialize
from wavecontrol.nonlinearity import Nonlinearity

from conftest import CONFIGS, MARCH_KERNELS, load_json, march_kernel, needs_cc


def small_linear_problem(**opts):
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    return wc.LinearControlProblem(grid, wc.interval_region(grid, 0.8, 1.0), **opts)


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
    Y1, F1, inner, r = wc.descent_direction(small_problem, g, sol.trajectory, sol.control)
    assert wc.l2_qt(Y1) <= 1e-8
    assert wc.l2_qt(F1) <= 1e-8


def test_descent_identity_finite_difference(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    sol = initialize(small_problem)
    y, f = sol.trajectory, sol.control
    E = wc.compute_E(y, f, g, small_problem.region)
    Y1, F1, inner, r = wc.descent_direction(small_problem, g, y, f)
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
    Y1, F1, inner, r = wc.descent_direction(small_problem, g, y, f)
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
    Y1, F1, inner, r = wc.descent_direction(small_problem, g, y, f)
    res = wc.line_search(y, r, Y1, g, m=2.0)
    assert res.status == "ok"
    y2 = wc.SpaceTimeField(y.grid, y.values - res.lam * Y1.values)
    f2 = wc.SpaceTimeField(y.grid, f.values - res.lam * F1.values)
    fresh = wc.compute_E(y2, f2, g, small_problem.region)
    assert fresh == pytest.approx(res.E_new, rel=1e-10, abs=1e-18)


def test_line_search_converged_at_zero_residual(small_problem):
    grid = small_problem.grid
    zero = wc.SpaceTimeField.zeros(grid)
    res = wc.line_search(zero, zero, zero, wc.builtin("zero"), m=2.0)
    assert res.status == "converged" and res.lam == 0.0 and res.E_new == 0.0


LINE_SEARCH_G = {"lipschitz_sat": wc.builtin("lipschitz_sat", kappa=5.0),
                 "cubic_sat": wc.builtin("cubic_sat", R=5.0),
                 "loglimit": wc.builtin("loglimit", a=0.2, b=0.5, c=1.0),
                 "linear": wc.builtin("linear", b=0.3),
                 "zero": wc.builtin("zero")}


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
    res = wc.line_search(y, r, Y1, g, m)
    E_at = segment_E(y, r, Y1, g)

    assert 0.0 <= res.lam <= m
    assert res.E_new <= E_at(0.0)
    assert res.E_new == E_at(res.lam)
    assert (res.status == "stagnated") == (res.lam == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_line_search_leaves_its_inputs_unchanged(dim):
    y, r, Y1 = random_segment(dim, 8.0, 0, seed=3)
    before = [f.values.copy() for f in (y, r, Y1)]
    wc.line_search(y, r, Y1, LINE_SEARCH_G["cubic_sat"], 2.0)
    for field, old in zip((y, r, Y1), before):
        assert np.array_equal(field.values, old)


@pytest.mark.parametrize("dim", [1, 2])
def test_line_search_with_g_returning_its_argument(dim):
    # IDENTITY hands back the evaluation buffer itself, which must not be
    # overwritten before g's result is read
    y, r, Y1 = random_segment(dim, 1.0, -1, seed=5)
    res = wc.line_search(y, r, Y1, IDENTITY, 2.0)
    assert res.status == "ok"
    assert res.E_new == segment_E(y, r, Y1, IDENTITY)(res.lam)
    same = wc.line_search(y, r, Y1, wc.builtin("linear", b=1.0), 2.0)
    assert (same.lam, same.E_new) == (res.lam, res.E_new)


# not square in 2D, so the loops' runs and columns cannot be swapped unseen
SEGMENT_NODES = {1: (11,), 2: (9, 6)}


def evaluations(kernel, y, r, Y1, g):
    """(lam, E) of every evaluation one line search makes on one kernel: the
    SCAN_POINTS scan, then the golden-section points."""
    seen = []
    energy = least_squares._segment_energy

    def recording(*args):
        E_at = energy(*args)

        def E(lam):
            seen.append((float(lam), E_at(lam)))
            return seen[-1][1]
        return E

    with march_kernel(kernel), pytest.MonkeyPatch.context() as mp:
        mp.setattr(least_squares, "_segment_energy", recording)
        least_squares.line_search(y, r, Y1, g, 2.0)
    return seen


def half_cell_sum_r2(r):
    grid = r.grid
    r_mid = r.values[(slice(1, -1),) * (grid.dim + 1)]
    return 0.5 * grid.dt * math.prod(grid.dx) * float(np.sum(np.square(r_mid)))


@needs_cc
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(LINE_SEARCH_G) + ["identity"])
def test_compiled_and_numpy_E_give_the_same_bits(dim, name):
    g = IDENTITY if name == "identity" else LINE_SEARCH_G[name]
    y, r, Y1 = random_segment(dim, 2.0, -1, seed=11, nodes=SEGMENT_NODES[dim])
    compiled = evaluations("compiled", y, r, Y1, g)
    assert len(compiled) > least_squares.SCAN_POINTS      # golden-section points too
    assert [lam for lam, _ in compiled[:least_squares.SCAN_POINTS]] == list(
        np.linspace(0.0, 2.0, least_squares.SCAN_POINTS))
    assert compiled == evaluations("numpy", y, r, Y1, g)
    # the stagnation test compares against E(0) = 1/2 |r|^2
    assert compiled[0] == (0.0, half_cell_sum_r2(r))


@pytest.mark.parametrize("kernel", MARCH_KERNELS)
@pytest.mark.parametrize("dim", [1, 2])
def test_E_reads_fields_in_reversed_time(kernel, dim):
    # a time_reversed() view has a negative level stride
    y, r, Y1 = random_segment(dim, 2.0, -1, seed=13, nodes=SEGMENT_NODES[dim])
    g = LINE_SEARCH_G["cubic_sat"]
    views = [f.time_reversed() for f in (y, r, Y1)]
    assert all(v.values.strides[0] < 0 for v in views)
    copies = [wc.SpaceTimeField(y.grid, v.values.copy()) for v in views]
    got = evaluations(kernel, *views, g)
    assert got == evaluations(kernel, *copies, g)
    assert got[0] == (0.0, half_cell_sum_r2(copies[1]))


@needs_cc
@pytest.mark.parametrize("dim", [1, 2])
def test_compiled_E_checks_the_fields_it_reads(dim):
    y, r, Y1 = random_segment(dim, 1.0, -1, seed=3, nodes=SEGMENT_NODES[dim])
    g = LINE_SEARCH_G["lipschitz_sat"]
    grid = y.grid
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
                    least_squares._segment_energy(fields[0], fields[1], fields[2], g)
        short = wc.SpaceTimeField._trusted(grid, r.values[:-1])
        with pytest.raises(ValueError):
            least_squares._segment_energy(y, short, Y1, g)
        # g of the wrong shape: the loop would read past its result
        flat = Nonlinearity("flat", lambda v: np.ravel(g.g(v))[:-1], g.dg,
                            s=1.0, seminorm=None, alpha=None, beta=None)
        with pytest.raises(ValueError):
            least_squares._segment_energy(y, r, Y1, flat)(0.5)


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
        E_at = least_squares._segment_energy(y, r, Y1, cube)
        assert E_at(2.0) == math.inf
        E0 = E_at(0.0)
        assert E0 == half_cell_sum_r2(r) and math.isfinite(E0)
        res = wc.line_search(y, r, Y1, cube, 2.0)
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


def test_analytic_lambda_branches():
    assert wc.analytic_lambda(4.0, 2.0, 1.0) == pytest.approx(1 / 8)
    assert wc.analytic_lambda(0.01, 0.1, 1.0) == 1.0   # 2*0.1*0.1 = 0.02 < 1
    assert wc.analytic_lambda(100.0, 3.0, 0.0) == 1.0  # s = 0 branch


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


def test_diagnostic_constants_zero_and_unit_cases():
    gz = wc.builtin("zero")
    out = wc.diagnostic_constants(1.0, 0.0, gz, C=1.0, M=0.0, domain_measure=1.0)
    assert out["c_of_y"] == 0.0 and out["e_k"] == 0.0

    unit = Nonlinearity("unit", lambda r: np.asarray(r, float),
                        lambda r: np.ones_like(np.asarray(r, float)),
                        s=1.0, seminorm=1.0, alpha=1.0, beta=0.0)
    out = wc.diagnostic_constants(1.0, 0.0, unit, C=1.0, M=0.0, domain_measure=1.0)
    assert out["d_of_y"] == pytest.approx(1.0)
    assert out["c_of_y"] == pytest.approx(1 / (2 * math.sqrt(2)))
    assert out["beta_star_s"] == pytest.approx(math.sqrt(1 / 6))


def test_diagnostic_constants_zero_seminorm_with_overflowed_d():
    # linear g with |b| = 30: d(y) = exp(900) overflows to inf, and the zero
    # seminorm makes c(y) and c_M exactly 0 (0 * inf would read nan), so the
    # surrogate step is 1
    g = wc.builtin("linear", b=30.0)
    out = wc.diagnostic_constants(2.0, 30.0, g, C=1.0, M=1.0, domain_measure=1.0)
    assert out["d_of_y"] == math.inf and out["d_M"] == math.inf
    assert out["c_of_y"] == 0.0 and out["c_M"] == 0.0 and out["e_k"] == 0.0
    assert wc.analytic_lambda(2.0, out["c_of_y"], g.s) == 1.0


def test_diagnostic_constants_overflowing_power_reads_inf():
    # kappa = 25: d(y) = exp(625) is finite, but d^2 leaves float range,
    # which raised OverflowError out of the first outer step
    g = wc.builtin("lipschitz_sat", kappa=25.0)
    out = wc.diagnostic_constants(2.0, 25.0, g, C=1.0, M=1.0, domain_measure=1.0)
    assert math.isfinite(out["d_of_y"])
    assert out["c_of_y"] == math.inf and out["e_k"] == math.inf
    assert wc.analytic_lambda(2.0, out["c_of_y"], g.s) == 0.0


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
    assert res.records[-1].init_defect_V == 0.0
    inner_sum = sum(r.inner_defect for r in res.records if math.isfinite(r.inner_defect))
    init_defect = res.records[0].term_defect_V
    assert res.records[-1].term_defect_V <= init_defect + 2 * inner_sum + 1e-12


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


def test_smallest_sufficient_C_found_for_tanh_run(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    res = wc.ls_solve(small_problem, g)
    C = wc.smallest_sufficient_C(res.records, g)
    assert C is not None and 1e-3 <= C <= 1e3


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
    assert len(applies) == 19


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
    assert len(applies) == 63


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
