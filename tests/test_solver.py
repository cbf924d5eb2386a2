import math
import warnings

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol.errors import BlowupError, ConfigError
from wavecontrol.solver import laplacian_interior

from conftest import MARCH_KERNELS, march_kernel


def eigenmode_problem(nx, nt, T=1.0):
    grid = wc.SpaceTimeGrid((1.0,), (nx,), T=T, nt=nt)
    x = grid.axis_nodes(0)
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    return grid, x, init


def test_zero_data_gives_zero_solution():
    grid = wc.SpaceTimeGrid((1.0,), (51,), T=1.0, nt=80)
    y = wc.solve_forward(grid, None, None, wc.StatePair.zeros(grid))
    assert np.all(y.values == 0.0)


def test_eigenmode_solution_and_second_order():
    errors = []
    for nx, nt in ((51, 63), (101, 126)):
        grid, x, init = eigenmode_problem(nx, nt)
        y = wc.solve_forward(grid, None, None, init)
        t = grid.time_levels()
        exact = np.sin(np.pi * x)[None, :] * np.cos(np.pi * t)[:, None]
        errors.append(float(np.max(np.abs(y.values - exact))))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5
    assert errors[1] < 2e-3


def test_manufactured_solution_with_potential():
    # y* = sin(pi x) sin(t) solves y_tt - y_xx + y = pi^2 sin(pi x) sin(t)
    errors = []
    for nx, nt in ((51, 150), (101, 300)):
        grid = wc.SpaceTimeGrid((1.0,), (nx,), T=2.0, nt=nt)
        x = grid.axis_nodes(0)
        t = grid.time_levels()
        A = wc.SpaceTimeField.constant(grid, 1.0)
        S = wc.SpaceTimeField(grid, math.pi**2 * np.sin(np.pi * x)[None, :]
                              * np.sin(t)[:, None])
        init = wc.StatePair(grid, np.zeros(grid.shape), np.sin(np.pi * x))
        y = wc.solve_forward(grid, A, S, init)
        exact = np.sin(np.pi * x)[None, :] * np.sin(t)[:, None]
        errors.append(float(np.max(np.abs(y.values - exact))))
    ratio = errors[0] / errors[1]
    assert 3.2 <= ratio <= 4.8


def test_2d_eigenmode():
    errors = []
    for n, nt in ((21, 60), (41, 120)):
        grid = wc.SpaceTimeGrid((1.0, 1.0), (n, n), T=1.0, nt=nt)
        X, Y = grid.meshgrid()
        init = wc.StatePair(grid, np.sin(np.pi * X) * np.sin(np.pi * Y),
                            np.zeros(grid.shape))
        sol = wc.solve_forward(grid, None, None, init)
        t = grid.time_levels()
        omega = math.sqrt(2.0) * math.pi
        exact = (np.sin(np.pi * X) * np.sin(np.pi * Y))[None] * np.cos(omega * t)[:, None, None]
        errors.append(float(np.max(np.abs(sol.values - exact))))
    assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_initial_state_recovers_data_exactly():
    grid = wc.SpaceTimeGrid((1.0,), (61,), T=1.5, nt=150)
    x = grid.axis_nodes(0)
    rng = np.random.default_rng(0)
    A = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    S = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    init = wc.StatePair(grid, np.sin(2 * np.pi * x), np.cos(np.pi * x) * x * (1 - x))
    y = wc.solve_forward(grid, A, S, init)
    rec = wc.initial_state(grid, y, A, S)
    assert np.allclose(rec.position, init.position, atol=1e-14)
    assert np.allclose(rec.velocity, init.velocity, atol=1e-12)


def test_backward_matches_direct_recurrence():
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.0, nt=90)
    x = grid.axis_nodes(0)
    rng = np.random.default_rng(1)
    A = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    term = wc.StatePair(grid, np.sin(np.pi * x),
                        np.sin(2 * np.pi * x))
    phi = wc.solve_backward(grid, A, term)

    # independent oracle: march the reversed-time recurrence directly
    dt = grid.dt
    ref = np.zeros_like(phi.values)
    ref[-1] = term.position
    acc = laplacian_interior(grid, ref[-1]) - A.values[-1, 1:-1] * ref[-1, 1:-1]
    ref[-2, 1:-1] = ref[-1, 1:-1] - dt * term.velocity[1:-1] + 0.5 * dt * dt * acc
    for n in range(grid.nt - 1, 0, -1):
        acc = laplacian_interior(grid, ref[n]) - A.values[n, 1:-1] * ref[n, 1:-1]
        ref[n - 1, 1:-1] = 2 * ref[n, 1:-1] - ref[n + 1, 1:-1] + dt * dt * acc
    assert np.allclose(phi.values, ref, atol=1e-11)


def test_backward_zero_terminal_and_time_reversed_eigenmode():
    grid = wc.SpaceTimeGrid((1.0,), (81,), T=1.0, nt=160)
    assert np.all(wc.solve_backward(grid, None, wc.StatePair.zeros(grid)).values == 0.0)
    x = grid.axis_nodes(0)
    term = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    phi = wc.solve_backward(grid, None, term)
    t = grid.time_levels()
    exact = np.sin(np.pi * x)[None, :] * np.cos(np.pi * (grid.T - t))[:, None]
    assert float(np.max(np.abs(phi.values - exact))) < 5e-3


def test_forward_solver_is_linear():
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.0, nt=80)
    rng = np.random.default_rng(2)
    A = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    x = grid.axis_nodes(0)
    u = wc.StatePair(grid, np.sin(np.pi * x), np.sin(3 * np.pi * x))
    v = wc.StatePair(grid, x * (1 - x), np.cos(np.pi * x) * x * (1 - x))
    a, b = 1.7, -0.4
    combo = wc.StatePair(grid, a * u.position + b * v.position,
                         a * u.velocity + b * v.velocity)
    y_combo = wc.solve_forward(grid, A, None, combo)
    y_sup = a * wc.solve_forward(grid, A, None, u).values \
        + b * wc.solve_forward(grid, A, None, v).values
    assert np.allclose(y_combo.values, y_sup, atol=1e-12)


def test_energy_near_conservation():
    grid, x, init = eigenmode_problem(101, 260, T=2.0)
    y = wc.solve_forward(grid, None, None, init)
    E = wc.discrete_energy(grid, y)
    drift = np.max(np.abs(E - E[0]))
    assert drift <= 0.01 * abs(E[0])
    # the leapfrog-compatible energy is conserved to roundoff
    assert drift <= 1e-10 * abs(E[0])


def test_residual_zero_for_zero_data():
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.0, nt=80)
    g = wc.builtin("zero")
    r = wc.residual_field(wc.SpaceTimeField.zeros(grid), None, g)
    assert np.all(r.values == 0.0)


def test_residual_stencil_consistency_identity():
    # exact identity up to roundoff amplified by 1/dt^2; O(1) data on a
    # moderate grid keeps it below 1e-12 in max norm
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.2, nt=60)
    region = wc.interval_region(grid, 0.6, 0.9)
    rng = np.random.default_rng(3)
    f = wc.SpaceTimeField(grid, 0.3 * rng.standard_normal((grid.nt + 1,) + grid.shape))
    src = wc.SpaceTimeField(grid, f.values * region.weights)
    x = grid.axis_nodes(0)
    init = wc.StatePair(grid, 0.5 * np.sin(np.pi * x), np.zeros(grid.shape))
    y = wc.solve_forward(grid, None, src, init)
    r = wc.residual_field(y, f, wc.builtin("zero"), region)
    assert float(np.max(np.abs(r.values))) <= 1e-12


def test_residual_matches_source_pattern_randomized():
    # residual of a solve with potential A and source S equals S - A y + g(y)
    rng = np.random.default_rng(4)
    g = wc.builtin("lipschitz_sat", kappa=0.7)
    for trial in range(4):
        grid = wc.SpaceTimeGrid((1.0,), (31 + 10 * trial,), T=1.0, nt=70 + 10 * trial)
        shape = (grid.nt + 1,) + grid.shape
        A = wc.SpaceTimeField(grid, rng.standard_normal(shape))
        S = wc.SpaceTimeField(grid, rng.standard_normal(shape))
        x = grid.axis_nodes(0)
        init = wc.StatePair(grid, np.sin(np.pi * x) * rng.uniform(0.5, 2),
                            np.sin(2 * np.pi * x))
        y = wc.solve_forward(grid, A, S, init)
        r = wc.residual_field(y, None, g, None)
        expected = S.values + g.g(y.values) - A.values * y.values
        mid = (slice(1, -1), slice(1, -1))
        assert np.allclose(r.values[mid], expected[mid], atol=1e-10)


def test_residual_of_constant_interior_equals_g_of_c():
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.0, nt=80)
    c = 1.3
    y = wc.SpaceTimeField.constant(grid, c)   # boundary-incompatible on purpose
    g = wc.builtin("lipschitz_sat", kappa=2.0)
    r = wc.residual_field(y, None, g, None)
    mid = (slice(1, -1), slice(1, -1))
    assert np.allclose(r.values[mid], float(g.g(c)), atol=1e-12)


def blowup_case(dim, nt, T, potential=-1e7, amplitude=1.0):
    # constant negative potential: at -1e7 unstable, overflowing within
    # ~100 steps; at -1e200 the second step overflows, at -1e308 the first
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), (41,), T=T, nt=nt)
        (X,) = grid.meshgrid()
        pos = np.sin(np.pi * X)
    else:
        grid = wc.SpaceTimeGrid((1.0, 1.0), (21, 21), T=T, nt=nt)
        X, Y = grid.meshgrid()
        pos = np.sin(np.pi * X) * np.sin(np.pi * Y)
    init = wc.StatePair(grid, amplitude * pos, np.zeros(grid.shape))
    return grid, wc.SpaceTimeField.constant(grid, potential), init


@pytest.mark.parametrize("dim,nt,T,potential,amplitude,expected", [
    pytest.param(1, 160, 2.0, -1e7, 1.0, 97, id="1d-level97-of-160"),
    pytest.param(1, 110, 1.375, -1e7, 1.0, 97, id="1d-level97-of-110"),
    pytest.param(2, 140, 7.0 / 6.0, -1e7, 1.0, 109, id="2d-level109-of-140"),
    pytest.param(2, 120, 1.0, -1e7, 1.0, 109, id="2d-level109-of-120"),
    pytest.param(1, 160, 2.16, -1e7, 1.0, 95, id="1d-level95-of-160"),
    pytest.param(2, 140, 1.9, -1e7, 1.0, 95, id="2d-level95-of-140"),
    # the last level is the first bad one
    pytest.param(1, 97, 97 * 0.0125, -1e7, 1.0, 97, id="1d-level97-of-97"),
    pytest.param(2, 109, 109 / 120, -1e7, 1.0, 109, id="2d-level109-of-109"),
    # the first step overflows, or the first step of the stepping kernels
    pytest.param(1, 40, 0.5, -1e308, 3.0, 1, id="1d-level1"),
    pytest.param(2, 40, 1.0, -1e308, 3.0, 1, id="2d-level1"),
    pytest.param(1, 40, 0.5, -1e200, 3.0, 2, id="1d-level2"),
    pytest.param(2, 40, 1.0, -1e200, 3.0, 2, id="2d-level2"),
])
def test_blowup_reports_first_bad_level(dim, nt, T, potential, amplitude, expected):
    case = dict(potential=potential, amplitude=amplitude)
    for kernel in MARCH_KERNELS:
        with march_kernel(kernel):
            assert first_bad_level(dim, nt, T, case) == expected, kernel


def first_bad_level(dim, nt, T, case):
    grid, A, init = blowup_case(dim, nt, T, **case)
    # an overflow is reported as BlowupError, never as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowupError) as err:
            wc.solve_forward(grid, A, None, init)
    level = err.value.time_level
    assert str(level) in str(err.value)
    # the plain per-step expressions reach their first nonfinite value there
    with np.errstate(over="ignore", invalid="ignore"):
        y = reference_forward(grid, A, None, init)
    assert [bool(np.isfinite(v).all()) for v in y].index(False) == level
    # truncated re-runs with the same dt (a grid takes at least 2 steps):
    # levels up to level-1 are finite and level itself is the first bad one
    dt = grid.dt
    if level > 2:
        trunc, A_trunc, init_trunc = blowup_case(dim, level - 1, dt * (level - 1), **case)
        assert trunc.dt == pytest.approx(dt, rel=1e-15)
        assert np.all(np.isfinite(wc.solve_forward(trunc, A_trunc, None, init_trunc).values))
    if level > 1:
        stop, A_stop, init_stop = blowup_case(dim, level, dt * level, **case)
        with pytest.raises(BlowupError) as err_stop:
            wc.solve_forward(stop, A_stop, None, init_stop)
        assert err_stop.value.time_level == level
    return level


def _reference_lap(grid, v):
    if grid.dim == 1:
        (dx,) = grid.dx
        return (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
    dx, dy = grid.dx
    core = v[1:-1, 1:-1]
    return ((v[2:, 1:-1] - 2 * core + v[:-2, 1:-1]) / dx**2
            + (v[1:-1, 2:] - 2 * core + v[1:-1, :-2]) / dy**2)


def reference_forward(grid, A, S, init):
    """The leapfrog march as plain per-step expressions.

    Python evaluates each expression left to right, which fixes the order
    of every floating-point operation; the solver must reproduce it bit for
    bit.
    """
    a = A.values if A is not None else None
    s = S.values if S is not None else None
    inner = (slice(1, -1),) * grid.dim
    dt = grid.dt
    dt2 = dt * dt
    y = np.zeros((grid.nt + 1,) + grid.shape)
    y[0] = init.position
    acc = _reference_lap(grid, y[0])
    if a is not None:
        acc = acc - a[0][inner] * y[0][inner]
    if s is not None:
        acc = acc + s[0][inner]
    y[1][inner] = init.position[inner] + dt * init.velocity[inner] + 0.5 * dt * dt * acc
    if grid.dim == 1:
        c = dt2 / grid.dx[0] ** 2
        for n in range(1, grid.nt):
            yn = y[n]
            new = (2.0 - 2.0 * c) * yn[1:-1] + c * yn[2:] + c * yn[:-2] - y[n - 1, 1:-1]
            if a is not None:
                new = new - dt2 * a[n, 1:-1] * yn[1:-1]
            if s is not None:
                new = new + dt2 * s[n, 1:-1]
            y[n + 1, 1:-1] = new
    else:
        cx = dt2 / grid.dx[0] ** 2
        cy = dt2 / grid.dx[1] ** 2
        for n in range(1, grid.nt):
            yn = y[n]
            core = yn[1:-1, 1:-1]
            new = ((2.0 - 2.0 * cx - 2.0 * cy) * core - y[n - 1, 1:-1, 1:-1]
                   + cx * (yn[2:, 1:-1] + yn[:-2, 1:-1])
                   + cy * (yn[1:-1, 2:] + yn[1:-1, :-2]))
            if a is not None:
                new = new - dt2 * a[n, 1:-1, 1:-1] * core
            if s is not None:
                new = new + dt2 * s[n, 1:-1, 1:-1]
            y[n + 1, 1:-1, 1:-1] = new
    return y


# the thin 2D grids have a one-row or one-column interior, where an
# off-by-one in the flat neighbour offsets or the edge reset would show
@pytest.mark.parametrize("nodes", [(41,), (13, 17), (3, 9), (9, 3)],
                         ids=["1", "2", "2-3x9", "2-9x3"])
@pytest.mark.parametrize("with_A,with_S", [(True, True), (True, False),
                                           (False, True), (False, False)])
def test_march_matches_reference_bitwise(nodes, with_A, with_S):
    dim = len(nodes)
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), nodes, T=1.0, nt=90)
    else:
        grid = wc.SpaceTimeGrid((1.0, 1.2), nodes, T=1.0, nt=40)
    rng = np.random.default_rng(10 * dim + 2 * with_A + with_S)
    shape = (grid.nt + 1,) + grid.shape
    A = wc.SpaceTimeField(grid, rng.standard_normal(shape)) if with_A else None
    S = wc.SpaceTimeField(grid, rng.standard_normal(shape)) if with_S else None
    pos = np.zeros(grid.shape)
    pos[(slice(1, -1),) * dim] = rng.standard_normal(grid.interior_shape)
    init = wc.StatePair(grid, pos, rng.standard_normal(grid.shape))

    expected = reference_forward(grid, A, S, init)
    # the backward solve takes no source: it is the reversed forward march
    # with reversed potential (read with a negative level stride) and
    # negated velocity
    rev_A = wc.SpaceTimeField(grid, A.values[::-1]) if with_A else None
    flipped = wc.StatePair(grid, init.position, -init.velocity)
    expected_back = reference_forward(grid, rev_A, None, flipped)[::-1]
    for kernel in MARCH_KERNELS:
        with march_kernel(kernel):
            y = wc.solve_forward(grid, A, S, init)
            phi = wc.solve_backward(grid, A, init)
        assert np.array_equal(y.values, expected), kernel
        assert np.array_equal(phi.values, expected_back), kernel


@pytest.mark.parametrize("other", [((1.0,), (30,)), ((2.0,), (51,))],
                         ids=["other-shape", "other-length"])
def test_state_on_another_grid_is_a_config_error(other):
    grid, _x, init = eigenmode_problem(51, 80)
    lengths, shape = other
    state = wc.StatePair.zeros(wc.SpaceTimeGrid(lengths, shape, T=1.0, nt=80))
    with pytest.raises(ConfigError, match="init is defined on a different grid"):
        wc.solve_forward(grid, None, None, state)
    with pytest.raises(ConfigError, match="terminal is defined on a different grid"):
        wc.solve_backward(grid, None, state)
    assert np.all(np.isfinite(wc.solve_backward(grid, None, init).values))


def test_terminal_state_second_order():
    errors = []
    for nx, nt in ((51, 120), (101, 240)):
        grid = wc.SpaceTimeGrid((1.0,), (nx,), T=1.0, nt=nt)
        x = grid.axis_nodes(0)
        init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
        y = wc.solve_forward(grid, None, None, init)
        term = wc.terminal_state(grid, y)
        exact_v = -math.pi * math.sin(math.pi * grid.T) * np.sin(np.pi * x)
        errors.append(float(np.max(np.abs(term.velocity - exact_v))))
    assert errors[0] / errors[1] > 3.0
