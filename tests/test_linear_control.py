import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sp_fft

import wavecontrol as wc
from wavecontrol import cli
from wavecontrol.errors import BlowupError, ConfigError
from wavecontrol.linear_control import (FLOOR_THETA, _cg, _constraint_rows, _free_response,
                                        _free_wave_band, _free_wave_block, _free_wave_diagonal,
                                        _free_wave_preconditioner, _free_wave_signals,
                                        _GramianOperator, _gramian_rho, _invert_lower,
                                        dual_to_rho, rho_from_seed, seed_from_rho)

from conftest import MARCH_KERNELS, march_kernel


@pytest.fixture()
def grid():
    return wc.SpaceTimeGrid((1.0,), (60,), T=2.5, nt=200)


@pytest.fixture()
def region(grid):
    return wc.interval_region(grid, 0.8, 1.0)


def band_is_every_mode(grid):
    """P is exact on every mode (its band block is all of P), not on a
    partial band with P's diagonal off it."""
    return len(_free_wave_band(grid)) == math.prod(grid.interior_shape)


def random_potential(grid, seed=0, scale=1.0):
    x = grid.meshgrid()[0]
    t = grid.time_levels().reshape((-1,) + (1,) * grid.dim)
    return wc.SpaceTimeField(grid, scale * (np.sin(3 * x)[None] * np.cos(t) + 0.5))


def random_seed_pair(grid, rng):
    n = 2 * math.prod(grid.interior_shape)
    return seed_from_rho(grid, rng.standard_normal(n))


def test_gramian_zero_seed(grid, region):
    out = wc.gramian_apply(grid, None, region, wc.StatePair.zeros(grid))
    assert np.all(out.position == 0.0) and np.all(out.velocity == 0.0)


def test_gramian_symmetry_and_positivity(grid, region):
    rng = np.random.default_rng(42)
    A = random_potential(grid, scale=1.5)
    for _ in range(5):
        s1 = random_seed_pair(grid, rng)
        s2 = random_seed_pair(grid, rng)
        p12 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s1), s2)
        p21 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s2), s1)
        assert abs(p12 - p21) <= 1e-10 * 0.5 * (abs(p12) + abs(p21))
        p11 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s1), s1)
        phi = wc.solve_backward(grid, A, s1)
        u = phi.values * region.weights
        u[-1] = 0.0
        qt_norm2 = wc.l2_qt(wc.SpaceTimeField(grid, u)) ** 2
        assert p11 >= 0.0
        assert abs(p11 - qt_norm2) <= 1e-10 * qt_norm2


def symmetry_case(dim, nodes, scale, phase, offset):
    """A small grid with a control region and a smooth potential varying in
    space and time."""
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), (nodes,), T=2.0, nt=3 * nodes)
        region = wc.interval_region(grid, 0.6, 1.0)
    else:
        grid = wc.SpaceTimeGrid((1.0, 1.2), (nodes, nodes + 2), T=1.5, nt=3 * nodes)
        region = wc.sides_region(grid, ["right", "top"], 0.3)
    x = grid.meshgrid()[0]
    t = grid.time_levels().reshape((-1,) + (1,) * dim)
    return grid, region, wc.SpaceTimeField(
        grid, scale * (np.sin(3 * x + phase)[None] * np.cos(t + phase) + offset))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), nodes=st.integers(5, 12),
       scale=st.floats(-3.0, 3.0), phase=st.floats(0.0, 3.0), offset=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**16))
def test_gramian_symmetry_property(dim, nodes, scale, phase, offset, seed):
    # rho1 . G rho2 = rho2 . G rho1 on the rho coordinates CG works in, to
    # 1e-12 of the Cauchy-Schwarz scale sqrt((rho1 . G rho1)(rho2 . G rho2))
    grid, region, A = symmetry_case(dim, nodes, scale, phase, offset)
    rng = np.random.default_rng(seed)
    rho1, rho2 = rng.standard_normal((2, 2 * math.prod(grid.interior_shape)))
    op = _GramianOperator(grid, region, A)
    G1 = _gramian_rho(op, rho1)
    G2 = _gramian_rho(op, rho2)
    bound = math.sqrt(float(rho1 @ G1) * float(rho2 @ G2))
    assert bound > 0.0
    assert abs(float(rho1 @ G2) - float(rho2 @ G1)) <= 1e-12 * bound


def from_seed(grid, A, region, seed):
    """The adjoint control of `seed`, the state it drives from rest and that
    state's terminal state, built from the public solves alone."""
    u = wc.solve_backward(grid, A, seed).values * region.weights
    u[-1] = 0.0
    control = wc.SpaceTimeField(grid, u)
    z = wc.solve_forward(grid, A, control, wc.StatePair.zeros(grid))
    return control, z, wc.terminal_state(grid, z, A, control)


@pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smoothed"])
@pytest.mark.parametrize("with_A", [False, True], ids=["A=0", "A"])
@pytest.mark.parametrize("dim", [1, 2])
def test_operator_apply_matches_one_shot_apply(dim, with_A, smooth):
    # consecutive applies reuse the operator's fields; each must equal the
    # apply built from the public solves bit for bit, so nothing carries over
    grid, region, A = symmetry_case(dim, 12, 1.3, 0.4, 0.2)
    if smooth:
        region = (wc.interval_region(grid, 0.55, 1.0, smoothing=True) if dim == 1
                  else wc.sides_region(grid, ["right", "top"], 0.3, smoothing=True))
        assert not region.is_sharp
    A = A if with_A else None
    op = _GramianOperator(grid, region, A)
    for seed in (3, 4, 5):
        rho = np.random.default_rng(seed).standard_normal(2 * math.prod(grid.interior_shape))
        pair = seed_from_rho(grid, rho)
        term = from_seed(grid, A, region, pair)[2]
        assert np.array_equal(_gramian_rho(op, rho),
                              dual_to_rho(grid, term.velocity, -term.position))
        public = wc.gramian_apply(grid, A, region, pair)
        assert np.array_equal(public.position, term.position)
        assert np.array_equal(public.velocity, term.velocity)


def reconstruction_case(dim, with_data):
    """A small sharp-region problem, with or without potential, source and
    initial data."""
    grid, region, A = symmetry_case(dim, 7 if dim == 2 else 12, 1.3, 0.4, 0.2)
    if not with_data:
        return wc.LinearControlProblem(grid, region)
    x = grid.meshgrid()[0]
    bump = math.prod(np.sin(np.pi * X / L) for X, L in zip(grid.meshgrid(), grid.lengths))
    t = grid.time_levels().reshape((-1,) + (1,) * dim)
    source = wc.SpaceTimeField(grid, np.cos(2 * t) * np.sin(2 * np.pi * x)[None])
    return wc.LinearControlProblem(grid, region, potential=A, source=source,
                                   initial=wc.StatePair(grid, bump, 0.5 * bump))


def assert_reconstructs(sol, prob, control):
    """sol's trajectory and terminal state are the free solution plus the
    state that `control` drives from rest, bit for bit."""
    grid, A = prob.grid, prob.potential
    z = wc.solve_forward(grid, A, control, wc.StatePair.zeros(grid))
    terminal = wc.terminal_state(grid, z, A, control)
    trajectory = z.values
    if prob.source is not None or not prob.initial.is_zero():
        free = wc.solve_forward(grid, A, prob.source, prob.initial)
        terminal = wc.terminal_state(grid, free, A, prob.source) + terminal
        trajectory = free.values + trajectory
    assert np.array_equal(sol.control.values, control.values)
    assert np.array_equal(sol.trajectory.values, trajectory)
    assert np.array_equal(sol.terminal.position, terminal.position)
    assert np.array_equal(sol.terminal.velocity, terminal.velocity)


@pytest.mark.parametrize("with_data", [False, True], ids=["rest", "A_source_data"])
@pytest.mark.parametrize("dim", [1, 2])
def test_solutions_are_the_public_reconstruction(dim, with_data):
    # the control, trajectory and terminal state both solvers return equal
    # the ones the public solves build from their rho / ut
    prob = reconstruction_case(dim, with_data)
    grid = prob.grid
    sol = wc.solve_null_control(prob)
    assert np.any(sol.control.values != 0.0) == with_data
    assert_reconstructs(sol, prob, from_seed(grid, prob.potential, prob.region,
                                             seed_from_rho(grid, sol.seed_coords))[0])

    oracle = wc.dense_oracle_control(prob)
    Ct, sqrt_w, mask = _constraint_rows(_GramianOperator(grid, prob.region, prob.potential))
    c = _free_response(prob)[2]
    rho = np.linalg.solve(Ct @ Ct.T + prob.effective_eps * np.eye(len(c)), c)
    u = np.zeros(mask.shape)
    u[mask] = (Ct.T @ rho) / sqrt_w
    assert_reconstructs(oracle, prob, wc.SpaceTimeField(grid, u))


@pytest.mark.parametrize("dim", [1, 2])
def test_repeated_applies_allocate_no_field(dim):
    # the marches read the potential, its time reversal and the control in
    # place: a per-apply copy of any of them would peak at a whole field
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), (200,), T=2.5, nt=600)
        region = wc.interval_region(grid, 0.8, 1.0)
    else:
        grid = wc.SpaceTimeGrid((1.0, 1.0), (40, 40), T=3.5, nt=210)
        region = wc.sides_region(grid, ["right", "top"], 0.15)
    field_bytes = 8 * (grid.nt + 1) * math.prod(grid.shape)
    A = wc.SpaceTimeField.constant(grid, 0.5)
    rho = np.random.default_rng(0).standard_normal(2 * math.prod(grid.interior_shape))
    for kernel in MARCH_KERNELS:
        with march_kernel(kernel):
            op = _GramianOperator(grid, region, A)
            _gramian_rho(op, rho)
            tracemalloc.start()
            try:
                for _ in range(3):
                    _gramian_rho(op, rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * field_bytes, (kernel, peak / field_bytes)


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_blowup_level_matches_solve_forward(dim):
    # an unstable potential blows the backward march up: the operator reports
    # the level of the one-shot march, and the nonfinite values it leaves in
    # its fields do not reach the next apply
    grid, region, _ = symmetry_case(dim, 12, 0.0, 0.0, 0.0)
    A = wc.SpaceTimeField.constant(grid, -1e14)
    n = 2 * math.prod(grid.interior_shape)
    rho = np.random.default_rng(0).standard_normal(n)
    seed = seed_from_rho(grid, rho)
    with pytest.raises(BlowupError) as one_shot:
        wc.solve_forward(grid, A.time_reversed(), None,
                         wc.StatePair(grid, seed.position, -seed.velocity))
    op = _GramianOperator(grid, region, A)
    with pytest.raises(BlowupError) as through_op:
        _gramian_rho(op, rho)
    assert 1 < through_op.value.time_level == one_shot.value.time_level < grid.nt
    assert np.array_equal(_gramian_rho(op, np.zeros(n)), np.zeros(n))


def test_rho_coordinates_roundtrip(grid):
    rng = np.random.default_rng(1)
    rho = rng.standard_normal(2 * (grid.shape[0] - 2))
    back = rho_from_seed(grid, seed_from_rho(grid, rho))
    assert np.allclose(back, rho, atol=1e-12)
    # the rho norm is the L2 x H^-1 norm of the seed
    s = seed_from_rho(grid, rho)
    assert np.linalg.norm(rho) == pytest.approx(wc.h_norm(s), rel=1e-12)


def test_trivial_null_problem(grid, region):
    sol = wc.solve_null_control(wc.LinearControlProblem(grid, region))
    assert sol.cg_iterations == 0 and sol.converged
    assert np.all(sol.control.values == 0.0)
    assert np.all(sol.trajectory.values == 0.0)
    assert sol.defect == 0.0 and sol.control_norm == 0.0


def test_null_control_drives_eigenmode_to_rest(grid, region):
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    prob = wc.LinearControlProblem(grid, region, initial=init,
                                   eps_reg=0.0, cg_tol=1e-8, cg_max_iter=800)
    sol = wc.solve_null_control(prob)
    assert sol.converged
    assert sol.defect <= 1e-6 * wc.v_norm(init)
    # control vanishes outside omega exactly
    outside = region.weights == 0.0
    assert np.all(sol.control.values[:, outside] == 0.0)
    # trajectory starts at the data exactly
    assert np.allclose(sol.trajectory.values[0], init.position, atol=0.0)


def test_control_defect_equals_cg_residual_at_zero_reg(grid, region):
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    prob = wc.LinearControlProblem(grid, region, initial=init,
                                   eps_reg=0.0, cg_tol=1e-6, cg_max_iter=300)
    sol = wc.solve_null_control(prob)
    free = wc.solve_forward(grid, None, None, init)
    gap_norm = wc.v_norm(wc.terminal_state(grid, free))
    assert sol.defect == pytest.approx(sol.residual_history[-1] * gap_norm, rel=1e-6)


def test_mirror_symmetry_of_control():
    # region symmetric about x = 1/2 with endpoints off the node lattice
    grid = wc.SpaceTimeGrid((1.0,), (31,), T=2.5, nt=100)
    region = wc.interval_region(grid, 0.31, 0.69)
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    sol = wc.solve_null_control(wc.LinearControlProblem(
        grid, region, initial=init, eps_reg=1e-2, cg_tol=1e-10, cg_max_iter=200))
    u = sol.control.values
    assert np.max(np.abs(u - u[:, ::-1])) <= 1e-10 * max(1.0, np.max(np.abs(u)))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), nodes=st.integers(9, 40), strength=st.floats(-2.0, 2.0),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), seed=st.integers(0, 2**16))
def test_control_map_is_linear(dim, nodes, strength, a, b, seed):
    # u(a d1 + b d2) = a u(d1) + b u(d2) for random data under a potential,
    # with P applied exactly (1D grids) and in two levels (2D squares of 9 to
    # 12 nodes a side: its float32 band factor, its diagonal off the band)
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), (nodes,), T=2.5, nt=math.ceil(2.5 * (nodes - 1) / 0.9))
        region = wc.interval_region(grid, 0.6, 1.0)
    else:
        nodes = 9 + nodes % 4
        grid = wc.SpaceTimeGrid((1.0, 1.0), (nodes, nodes), T=2.5,
                                nt=math.ceil(2.5 * (nodes - 1) * math.sqrt(2) / 0.9))
        region = wc.sides_region(grid, ["right", "top"], 0.4)
    assert band_is_every_mode(grid) == (dim == 1)
    rng = np.random.default_rng(seed)
    d1, d2 = random_seed_pair(grid, rng), random_seed_pair(grid, rng)
    combo = wc.StatePair(grid, a * d1.position + b * d2.position,
                         a * d1.velocity + b * d2.velocity)
    opts = dict(potential=random_potential(grid, scale=strength), eps_reg=1e-6, cg_tol=1e-12,
                cg_max_iter=900)
    u1, u2, uc = (wc.solve_null_control(wc.LinearControlProblem(grid, region, initial=d, **opts))
                  for d in (d1, d2, combo))
    assert u1.converged and u2.converged and uc.converged
    lhs = uc.control.values
    rhs = a * u1.control.values + b * u2.control.values
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-6 * scale


def test_cg_gramian_norm_error_is_monotone():
    # the energy-norm error of preconditioned CG decreases at every
    # iteration; capped runs reproduce the iterates exactly (deterministic),
    # so compare each against a converged reference, up to the reference's
    # iteration count.  With a potential the free-wave preconditioner is not
    # the system's operator, so CG takes several iterations (8 here)
    grid = wc.SpaceTimeGrid((1.0,), (31,), T=2.5, nt=100)
    region = wc.interval_region(grid, 0.8, 1.0)
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    A = random_potential(grid, scale=1.5)
    eps = 1e-3
    base = dict(potential=A, initial=init, eps_reg=eps, cg_tol=1e-14)
    ref = wc.solve_null_control(wc.LinearControlProblem(grid, region, cg_max_iter=500, **base))
    assert ref.converged and ref.cg_iterations >= 5

    op = _GramianOperator(grid, region, A)

    def g_norm_error(rho):
        e = ref.seed_coords - rho
        return float(e @ (_gramian_rho(op, e) + eps * e))

    errors = []
    for cap in range(ref.cg_iterations):
        sol = wc.solve_null_control(wc.LinearControlProblem(
            grid, region, cg_max_iter=cap, **base))
        errors.append(g_norm_error(sol.seed_coords))
    assert all(b < a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3 * errors[0]


def test_nonconvergence_is_a_status_not_an_exception(grid, region):
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    sol = wc.solve_null_control(wc.LinearControlProblem(
        grid, region, initial=init, eps_reg=0.0, cg_tol=1e-14, cg_max_iter=3))
    assert not sol.converged and sol.cg_iterations == 3


def test_default_eps_is_h_squared(grid, region):
    prob = wc.LinearControlProblem(grid, region)
    assert prob.effective_eps == pytest.approx(min(grid.dx) ** 2, rel=1e-15)
    assert wc.LinearControlProblem(grid, region, eps_reg=0.0).effective_eps == 0.0
    with pytest.raises(ConfigError):
        wc.LinearControlProblem(grid, region, eps_reg=-1.0)


@pytest.mark.parametrize("part", ["region", "potential", "source", "initial", "target"])
@pytest.mark.parametrize("lengths,nodes", [((1.0,), (30,)), ((2.0,), (60,))],
                         ids=["other-shape", "other-length"])
def test_problem_part_on_another_grid_is_a_config_error(grid, region, part, lengths, nodes):
    # rejected up front: a part of another shape would fail deep in numpy
    # broadcasting, one of the same shape on another grid (here L = 2) could
    # run silently
    other = wc.SpaceTimeGrid(lengths, nodes, T=2.5, nt=200)
    wrong = {"region": wc.interval_region(other, 0.8, 1.0),
             "potential": wc.SpaceTimeField.zeros(other),
             "source": wc.SpaceTimeField.zeros(other),
             "initial": wc.StatePair.zeros(other),
             "target": wc.StatePair.zeros(other)}[part]
    parts = {"region": region, part: wrong}
    with pytest.raises(ConfigError, match=f"{part} is defined on a different grid"):
        wc.LinearControlProblem(grid, **parts)


# ---------------------------------------------------------------------------
# CG stopped at the Tikhonov floor
# ---------------------------------------------------------------------------

def floor_problem(nx, eps, a, modes, cg_tol=1e-14):
    """Eigenmode data steered to rest on omega = (a, 1); `modes` holds
    (k, position amplitude, velocity amplitude) triples."""
    grid = wc.SpaceTimeGrid((1.0,), (nx,), T=2.5, nt=math.ceil(2.5 * (nx - 1) / 0.9))
    (x,) = grid.meshgrid()
    pos = sum(p * np.sin(k * np.pi * x) for k, p, _ in modes)
    vel = sum(v * np.sin(k * np.pi * x) for k, _, v in modes)
    return wc.LinearControlProblem(grid, wc.interval_region(grid, a, 1.0),
                                   initial=wc.StatePair(grid, pos, vel), eps_reg=eps,
                                   cg_tol=cg_tol, cg_max_iter=500)


def test_floor_stop_saves_iterations_and_keeps_the_defect():
    prob = floor_problem(31, 1e-3, 0.8, [(1, 1.0, 0.0), (3, 0.3, 0.5)])
    tight = wc.solve_null_control(prob)
    floor = wc.solve_null_control(prob, floor=True)
    assert tight.converged and floor.converged
    assert floor.cg_iterations < tight.cg_iterations
    assert floor.defect <= (1 + FLOOR_THETA) * tight.defect


def test_floor_stop_without_regularization_is_the_plain_solve():
    prob = floor_problem(31, 0.0, 0.8, [(1, 1.0, 0.0)], cg_tol=1e-8)
    plain = wc.solve_null_control(prob)
    floor = wc.solve_null_control(prob, floor=True)
    assert floor.cg_iterations == plain.cg_iterations
    assert np.array_equal(floor.control.values, plain.control.values)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(nx=st.integers(6, 24),
       log_eps=st.floats(-5.0, -1.0),
       a=st.floats(0.3, 0.8),
       modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=3))
def test_floor_stop_defect_bound_property(nx, log_eps, a, modes):
    # |d_k| <= (1 + theta) |d*|: the floor-stopped terminal defect against the
    # defect of a solve run to cg_tol = 1e-14
    prob = floor_problem(nx, 10.0 ** log_eps, a, modes)
    tight = wc.solve_null_control(prob)
    floor = wc.solve_null_control(prob, floor=True)
    assert floor.cg_iterations <= tight.cg_iterations
    assert floor.defect <= (1 + FLOOR_THETA) * tight.defect + 1e-14 * wc.v_norm(prob.initial)


def potential_problem(prob, scale):
    """prob with the potential scale * (sin(3x) cos(t) + 1/2)."""
    return dataclasses.replace(prob, potential=random_potential(prob.grid, scale=scale))


def diagonal_problem(scale):
    """A 2D floor problem whose P is exact only on a partial band of modes
    (80 of 144) and divides by its diagonal off it: the first eigenmode
    steered to rest from a sharp `sides` region, under the potential
    scale * (sin(3x) cos(t) + 1/2)."""
    grid = wc.SpaceTimeGrid((1.0, 1.0), (14, 14), T=2.5, nt=52)
    X, Y = grid.meshgrid()
    t = grid.time_levels()[:, None, None]
    mode = np.sin(np.pi * X) * np.sin(np.pi * Y)
    prob = wc.LinearControlProblem(
        grid, wc.sides_region(grid, ["right", "top"], 0.3),
        potential=wc.SpaceTimeField(grid, scale * (np.sin(3 * X)[None] * np.cos(t) + 0.5)),
        initial=wc.StatePair(grid, mode, np.zeros(grid.shape)), cg_tol=1e-14)
    assert len(_free_wave_band(grid)) == 80
    return prob


def test_floor_solve_off_the_rule_divides_by_the_diagonal():
    # the floor solve runs CG with the two-level P built here, and that P
    # divides by P's diagonal off the band and solves P's band block on it
    prob = diagonal_problem(0.5)
    grid, region, eps = prob.grid, prob.region, prob.effective_eps
    precond = _free_wave_preconditioner(grid, region, eps)
    op = _GramianOperator(grid, region, prob.potential)
    rho, iters, converged, history = _cg(op, _free_response(prob)[2], prob.cg_tol,
                                         prob.cg_max_iter, eps, FLOOR_THETA * eps, precond)
    first = wc.solve_null_control(prob, floor=True)
    assert (first.cg_iterations, first.converged) == (iters, converged)
    assert first.residual_history == history
    assert np.array_equal(first.seed_coords, rho)

    band, F, diag = precond
    n = math.prod(grid.interior_shape)
    off = np.setdiff1d(np.arange(2 * n), band)
    assert len(band) == 160 and F.dtype == np.float32
    P = closed_form_gramian(grid, region) + eps * np.eye(2 * n)
    assert np.max(np.abs(diag[off] - np.diag(P)[off])) <= 1e-12 * np.max(np.diag(P))
    r = np.random.default_rng(3).standard_normal(2 * n)
    z = wc.linear_control._precondition(precond, r)
    assert np.array_equal(z[off], r[off] / diag[off])
    exact = np.linalg.solve(P[np.ix_(band, band)], r[band])
    assert np.linalg.norm(z[band] - exact) <= 1e-4 * np.linalg.norm(exact)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(nx=st.integers(8, 24),
       log_eps=st.floats(-5.0, -1.0),
       a=st.floats(0.3, 0.8),
       scales=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=3))
def test_recycled_floor_stop_defect_bound_property(nx, log_eps, a, scales, modes):
    # one preconditioner shared by solves under two potentials: on these 1D
    # grids P's band is every mode, so both apply P exactly, and the
    # second's defect obeys the bound
    # |d_k| <= (1 + theta) / (1 - theta) |d*| against a cg_tol = 1e-14 solve
    # (`test_diagonal_floor_stop_defect_bound` covers the diagonal path)
    prob = floor_problem(nx, 10.0 ** log_eps, a, modes)
    precond = _free_wave_preconditioner(prob.grid, prob.region, prob.effective_eps)
    assert band_is_every_mode(prob.grid) and np.all(np.isinf(precond[2]))
    wc.solve_null_control(potential_problem(prob, scales[0]), True, precond)
    target = potential_problem(prob, scales[1])
    tight = wc.solve_null_control(target)
    recycled = wc.solve_null_control(target, True, precond)
    assert recycled.converged
    bound = (1 + FLOOR_THETA) / (1 - FLOOR_THETA)
    assert recycled.defect <= bound * tight.defect + 1e-14 * wc.v_norm(prob.initial)


def test_diagonal_floor_stop_defect_bound():
    # two solves share the two-level P; the second's iterates need not grow
    # in the Euclidean norm, so its defect obeys the bound
    # |d_k| <= (1 + theta) / (1 - theta) |d*| against a cg_tol = 1e-14 solve
    first = diagonal_problem(0.5)
    precond = _free_wave_preconditioner(first.grid, first.region, first.effective_eps)
    wc.solve_null_control(first, True, precond)
    target = diagonal_problem(1.0)
    tight = wc.solve_null_control(target)
    recycled = wc.solve_null_control(target, True, precond)
    assert tight.converged and recycled.converged
    assert recycled.cg_iterations < tight.cg_iterations
    bound = (1 + FLOOR_THETA) / (1 - FLOOR_THETA)
    assert recycled.defect <= bound * tight.defect


def scaled_problem(prob, amplitude):
    """prob with its initial state times amplitude."""
    init = prob.initial
    return dataclasses.replace(prob, initial=wc.StatePair(
        prob.grid, amplitude * init.position, amplitude * init.velocity))


@pytest.mark.parametrize("make, floor, rel", [
    (lambda: diagonal_problem(0.5), True, 1e-10),
    (lambda: diagonal_problem(0.5), False, 1e-12),
    (lambda: potential_problem(floor_problem(31, 1e-3, 0.8, [(1, 1.0, 0.0), (3, 0.3, 0.5)]),
                               1.0), False, 1e-12),
], ids=["2d_partial_band_floor", "2d_partial_band_exact", "1d_every_mode_exact"])
def test_solve_is_scale_invariant(make, floor, rel):
    # the float32 band factor is applied to the band residual scaled by a
    # power of two, so data of amplitude 1e-44 neither underflows float32
    # (the 2D floor solve ran 184 iterations unconverged) nor data of
    # amplitude 1e40 overflows it (nonfinite states); CG solves for its data
    # scaled by a power of two, so below 1e-154 c @ c does not underflow
    # (it returned `converged` after 0 iterations with a zero control), and
    # the norms of `fields` sum their squares at a power-of-two scale there
    # (the defect and the control norm read 0.0).
    # Every amplitude takes the iterations of amplitude 1 and gives its
    # defect and control up to the scale: to 1e-12 for the exact solves,
    # and for the floor solve to the float32 rounding its stopped iterate
    # keeps (7.4e-12 measured); a power-of-two amplitude gives the same bits
    prob = make()
    ref = wc.solve_null_control(prob, floor)
    for amplitude in (1e-44, 1e40, 2.0 ** -146, 2.0 ** 133, 2.0 ** -700, 1e-200):
        scaled = scaled_problem(prob, amplitude)
        sol = wc.solve_null_control(scaled, floor)
        assert sol.converged and sol.cg_iterations == ref.cg_iterations
        assert sol.defect / wc.v_norm(scaled.initial) == pytest.approx(
            ref.defect / wc.v_norm(prob.initial), rel=rel, abs=0.0)
        assert sol.control_norm / amplitude == pytest.approx(
            ref.control_norm, rel=rel, abs=0.0)
        if math.frexp(amplitude)[0] == 0.5:
            assert np.array_equal(sol.seed_coords / amplitude, ref.seed_coords)


# ---------------------------------------------------------------------------
# the closed-form free-wave Gramian and the preconditioned floor solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smoothed"])
@pytest.mark.parametrize("a", [0.0, 3.7], ids=["a=0", "a=3.7"])
@pytest.mark.parametrize("dim", [1, 2])
def test_free_wave_gramian_matches_operator(dim, a, smooth):
    # G(a) in closed form against the marched operator, column by column and
    # on random vectors, for an interval (1D) or sides (2D) region
    if dim == 1:
        grid = wc.SpaceTimeGrid((1.0,), (40,), T=2.5, nt=120)
        region = wc.interval_region(grid, 0.55, 1.0, smoothing=smooth)
    else:
        grid = wc.SpaceTimeGrid((1.0, 1.2), (9, 11), T=1.5, nt=40)
        region = wc.sides_region(grid, ["right", "top"], 0.3, smoothing=smooth)
    assert region.is_sharp != smooth
    n = math.prod(grid.interior_shape)
    G = _free_wave_block(grid, region, np.arange(n), a)
    op = _GramianOperator(grid, region, wc.SpaceTimeField.constant(grid, a) if a else None)
    columns = np.array([_gramian_rho(op, e) for e in np.eye(len(G))]).T
    assert np.max(np.abs(columns - G)) <= 1e-12 * np.max(np.abs(columns))
    for rho in np.random.default_rng(7).standard_normal((3, len(G))):
        G_rho = _gramian_rho(op, rho)
        assert np.linalg.norm(G @ rho - G_rho) <= 1e-12 * np.linalg.norm(G_rho)
    # the diagonal the preconditioner divides by off its band, without G
    diag = np.diag(G)
    assert (np.max(np.abs(_free_wave_diagonal(grid, region, np.arange(n), a) - diag))
            <= 1e-12 * np.max(diag))


def closed_form_gramian(grid, region, a=0.0):
    """The whole G(a) with D from `dstn` of the identity: the closed form
    that `_free_wave_block` reproduces from per-axis DST-I matrices."""
    n = math.prod(grid.interior_shape)
    T, w = _free_wave_signals(grid, a, np.arange(n))
    G = T.T @ (w * T)
    D = sp_fft.dstn(np.eye(n).reshape((n,) + grid.interior_shape), type=1, norm="ortho",
                    axes=tuple(range(-grid.dim, 0))).reshape(n, n)
    chi = region.weights[(slice(1, -1),) * grid.dim].ravel()
    G.reshape(2, n, 2, n)[...] *= ((D * chi) @ D.T)[:, None, :]
    return G


def config_grids(configs_dir, name):
    """(grid, region) of a committed config, one pair per swept node count."""
    cfg = cli.load_config(configs_dir / f"{name}.json")
    sweep = cfg.get("sweep", {"path": None})
    nodes = sweep["values"] if sweep["path"] == "scenario.nodes" else [cfg["scenario"]["nodes"]]
    for value in nodes:
        cfg["scenario"]["nodes"] = value
        grid = cli.build_grid(cfg)
        yield grid, cli.build_region(cfg, grid)


@pytest.mark.parametrize("name", ["lipschitz_default", "newton_diverge", "resolution_sweep",
                                  "strong_nonlinearity"])
def test_free_wave_block_of_every_mode_is_the_closed_form(configs_dir, name):
    # in 1D the block of every mode keeps the bits of the whole closed form,
    # so the exact P of every 1D solve is unchanged
    for grid, region in config_grids(configs_dir, name):
        assert band_is_every_mode(grid)
        modes = np.arange(math.prod(grid.interior_shape))
        block = _free_wave_block(grid, region, modes)
        assert np.array_equal(block, closed_form_gramian(grid, region))


@pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smoothed"])
@pytest.mark.parametrize("a", [0.0, 3.7], ids=["a=0", "a=3.7"])
def test_free_wave_band_block_matches_the_gramian(a, smooth):
    # the 2D band block, formed from T's band columns and D's band rows
    # only, against the same entries of the whole closed form
    grid = wc.SpaceTimeGrid((1.0, 1.2), (9, 11), T=1.5, nt=40)
    region = wc.sides_region(grid, ["right", "top"], 0.3, smoothing=smooth)
    n = math.prod(grid.interior_shape)
    modes = _free_wave_band(grid)
    assert 0 < len(modes) < n
    seeds = np.concatenate([modes, n + modes])
    G = closed_form_gramian(grid, region, a)
    block = _free_wave_block(grid, region, modes, a)
    assert np.max(np.abs(block - G[np.ix_(seeds, seeds)])) <= 1e-12 * np.max(np.abs(G))


def test_free_wave_band_is_the_top_of_each_axis(configs_dir):
    # smoke_2d: the 483 modes with max(kx, ky) >= 32 of 38, the widest band
    # whose block fits 3 (nt + 1) nodes entries (max(kx, ky) >= 31 would
    # take 544 modes); every mode on the 1D configs and on the 2D squares of
    # 5 to 8 nodes of the PCG property
    ((grid, _),) = config_grids(configs_dir, "smoke_2d")
    k = np.arange(1, 39)
    top = np.flatnonzero(np.maximum.outer(k, k).ravel() >= 32)
    assert len(top) == 483 and np.array_equal(_free_wave_band(grid), top)
    assert (2 * 544) ** 2 > 3 * (grid.nt + 1) * math.prod(grid.shape)
    for name in ["lipschitz_default", "newton_diverge", "resolution_sweep",
                 "strong_nonlinearity", "loglimit_csweep", "linear_sanity"]:
        assert all(band_is_every_mode(grid) for grid, _ in config_grids(configs_dir, name))
    for nx in range(5, 9):
        assert band_is_every_mode(pcg_problem(2, nx, 1e-3, 0.5, [(1, 1.0, 0.0)]).grid)


@pytest.mark.parametrize("log_eps", [None, -6, -9], ids=["dx^2", "1e-6", "1e-9"])
@pytest.mark.parametrize("nx", [12, 24, 37, 50])
def test_free_wave_band_factor_builds(nx, log_eps):
    # the float32 inverse Cholesky factor F of the band block P_b, on 2D
    # squares: F P_b F^T = I to float32 accuracy (measured at most 7.5e-5,
    # at 50 nodes and eps = 1e-9, where P_b's condition number is 9e7)
    grid = pcg_problem(2, nx, 1e-3, 0.5, [(1, 1.0, 0.0)]).grid
    region = wc.sides_region(grid, ["right", "top"], 0.3)
    eps = min(grid.dx) ** 2 if log_eps is None else 10.0 ** log_eps
    band, F, diag = _free_wave_preconditioner(grid, region, eps)
    assert 0 < len(band) < len(diag)
    assert F.dtype == np.float32 and F.shape == (len(band),) * 2
    assert np.all(np.isinf(diag[band])) and np.all(np.isfinite(np.delete(diag, band)))
    P = _free_wave_block(grid, region, _free_wave_band(grid)) + eps * np.eye(len(band))
    F = F.astype(np.float64)
    assert np.linalg.norm(F @ P @ F.T - np.eye(len(band)), 2) <= 1e-3


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 966])
def test_invert_lower_in_place(n):
    # leaves of 64 rows or fewer, one split, and smoke_2d's band block size:
    # L^{-1} in L's own storage, exactly lower-triangular, to float64 roundoff
    rng = np.random.default_rng(n)
    L = np.tril(rng.standard_normal((n, n))) / math.sqrt(n)
    L[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
    F = L.copy()
    assert _invert_lower(F) is F
    assert not np.triu(F, 1).any()
    assert np.max(np.abs(F @ L - np.eye(n))) <= 1e-13


def test_smoke_2d_band_factor_is_lower_triangular(configs_dir):
    # the float64 inverse is rounded to float32 once, so F's upper triangle
    # is exactly 0 (an inverse of the float32 factor carried roundoff there)
    ((grid, region),) = config_grids(configs_dir, "smoke_2d")
    band, F, _ = _free_wave_preconditioner(grid, region, min(grid.dx) ** 2)
    assert F.dtype == np.float32 and F.shape == (966, 966) == (len(band),) * 2
    assert not np.triu(F, 1).any() and np.all(np.diag(F) > 0)


def test_band_factor_needs_no_scipy_linalg():
    # the inverse is numpy's: importing scipy.linalg would cost every run
    # about 6 MB of resident memory
    code = ("import sys, wavecontrol as wc\n"
            "from wavecontrol.linear_control import _free_wave_preconditioner\n"
            "grid = wc.SpaceTimeGrid((1.0, 1.0), (14, 14), T=2.5, nt=52)\n"
            "region = wc.sides_region(grid, ['right', 'top'], 0.3)\n"
            "assert _free_wave_preconditioner(grid, region, 1e-3) is not None\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n")
    src = str(Path(wc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_free_wave_preconditioner_is_exact_without_potential(monkeypatch):
    # P = G(0) + eps I is the operator of a potential-free solve: one apply
    prob = floor_problem(31, 1e-3, 0.8, [(1, 1.0, 0.0), (3, 0.3, 0.5)])
    assert band_is_every_mode(prob.grid)
    applies = []
    monkeypatch.setattr("wavecontrol.linear_control._gramian_rho",
                        lambda *args: applies.append(1) or _gramian_rho(*args))
    sol = wc.solve_null_control(prob, floor=True)
    assert sol.converged and sol.cg_iterations == len(applies) == 1


def pcg_problem(dim, nx, eps, a, modes):
    """floor_problem in 1D; in 2D the same modes (times sin(pi y)) on an
    nx x nx square steered from the sides (right, top) of width 1.1 - a."""
    if dim == 1:
        return floor_problem(nx, eps, a, modes)
    grid = wc.SpaceTimeGrid((1.0, 1.0), (nx, nx), T=2.5,
                            nt=math.ceil(2.5 * (nx - 1) * math.sqrt(2) / 0.9))
    X, Y = grid.meshgrid()
    pos = sum(p * np.sin(k * np.pi * X) for k, p, _ in modes) * np.sin(np.pi * Y)
    vel = sum(v * np.sin(k * np.pi * X) for k, _, v in modes) * np.sin(np.pi * Y)
    return wc.LinearControlProblem(grid, wc.sides_region(grid, ["right", "top"], 1.1 - a),
                                   initial=wc.StatePair(grid, pos, vel), eps_reg=eps,
                                   cg_tol=1e-14, cg_max_iter=500)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]),
       nx=st.integers(6, 24),
       log_eps=st.floats(-5.0, -1.0),
       a=st.floats(0.3, 0.8),
       scale=st.floats(-2.0, 2.0),
       modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=3))
def test_preconditioned_floor_stop_defect_bound_property(dim, nx, log_eps, a, scale, modes):
    # CG preconditioned with G(0) + eps I on a problem with a potential: its
    # iterates need not grow in the Euclidean norm, so the defect obeys the
    # bound |d_k| <= (1 + theta) / (1 - theta) |d*| against a cg_tol = 1e-14
    # solve; on 2D squares of 5 to 8 nodes a side P's band is every mode too
    nx = nx if dim == 1 else 5 + nx % 4
    prob = potential_problem(pcg_problem(dim, nx, 10.0 ** log_eps, a, modes), scale)
    assert band_is_every_mode(prob.grid)
    tight = wc.solve_null_control(prob)
    precond = _free_wave_preconditioner(prob.grid, prob.region, prob.effective_eps)
    assert np.all(np.isinf(precond[2]))
    floor = wc.solve_null_control(prob, True, precond)
    assert floor.converged
    bound = (1 + FLOOR_THETA) / (1 - FLOOR_THETA)
    assert floor.defect <= bound * tight.defect + 1e-14 * wc.v_norm(prob.initial)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(nx=st.integers(9, 12),
       log_eps=st.floats(-5.0, -1.0),
       a=st.floats(0.3, 0.8),
       scale=st.floats(-2.0, 2.0),
       modes=st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=3))
def test_diagonal_floor_stop_defect_bound_property(nx, log_eps, a, scale, modes):
    # CG preconditioned with the two-level G(0) + eps I on 2D squares of 9
    # to 12 nodes a side, where its band is partial, with a potential: the
    # defect obeys |d_k| <= (1 + theta) / (1 - theta) |d*| against a
    # cg_tol = 1e-14 solve
    prob = potential_problem(pcg_problem(2, nx, 10.0 ** log_eps, a, modes), scale)
    assert not band_is_every_mode(prob.grid)
    tight = wc.solve_null_control(prob)
    precond = _free_wave_preconditioner(prob.grid, prob.region, prob.effective_eps)
    band, F, diag = precond
    assert F.dtype == np.float32 and np.all(np.isfinite(np.delete(diag, band)))
    floor = wc.solve_null_control(prob, True, precond)
    assert floor.converged
    bound = (1 + FLOOR_THETA) / (1 - FLOOR_THETA)
    assert floor.defect <= bound * tight.defect + 1e-14 * wc.v_norm(prob.initial)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def oracle_problem(eps):
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    region = wc.interval_region(grid, 0.8, 1.0)
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    return wc.LinearControlProblem(grid, region, initial=init, eps_reg=eps,
                                   cg_tol=1e-10, cg_max_iter=500)


def test_oracle_trivial_case():
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    region = wc.interval_region(grid, 0.8, 1.0)
    sol = wc.dense_oracle_control(wc.LinearControlProblem(grid, region))
    assert float(np.max(np.abs(sol.control.values))) <= 1e-12


def test_oracle_matches_cg_with_matched_regularization():
    prob = oracle_problem(eps=min((1.0 / 19,)) ** 2)
    cg = wc.solve_null_control(prob)
    oracle = wc.dense_oracle_control(prob)
    diff = wc.SpaceTimeField(prob.grid, cg.control.values - oracle.control.values)
    rel = wc.l2_qt(diff) / wc.l2_qt(oracle.control)
    assert rel <= 1e-4


def criterion_2_potential(grid):
    (x,) = grid.meshgrid()
    tl = grid.time_levels()
    return wc.SpaceTimeField(grid, 1.2 * np.sin(3 * x)[None, :] * np.cos(tl)[:, None] + 0.4)


def oracle_row_cases():
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    region = wc.interval_region(grid, 0.8, 1.0)
    grid2 = wc.SpaceTimeGrid((1.0, 1.2), (9, 11), T=2.0, nt=30)
    region2 = wc.rectangle_region(grid2, 0.0, 0.4, 0.0, 1.2)
    return [wc.LinearControlProblem(grid, region),
            wc.LinearControlProblem(grid, region, potential=criterion_2_potential(grid)),
            wc.LinearControlProblem(grid2, region2)]


@pytest.mark.parametrize("case", range(3), ids=["1d", "1d_potential", "2d"])
def test_oracle_rows_match_impulse_responses(case):
    prob = oracle_row_cases()[case]
    grid, region = prob.grid, prob.region
    Ct, sqrt_w, mask = _constraint_rows(_GramianOperator(grid, region, prob.potential))
    # active dofs: interior nodes of omega on levels 0..nt-1
    active = np.zeros(grid.shape, dtype=bool)
    interior = (slice(1, -1),) * grid.dim
    active[interior] = region.weights[interior] == 1.0
    assert np.array_equal(mask, np.stack([active] * grid.nt + [np.zeros_like(active)]))
    assert Ct.shape == (2 * math.prod(grid.interior_shape), int(active.sum()) * grid.nt)
    for k in np.linspace(0, Ct.shape[1] - 1, 6).astype(int):
        # whitened unit impulse at dof k (C order of the mask), driven from rest
        src = np.zeros(mask.shape)
        src.flat[np.flatnonzero(mask)[k]] = 1.0 / sqrt_w[k]
        u = wc.SpaceTimeField(grid, src)
        z = wc.solve_forward(grid, prob.potential, u, wc.StatePair.zeros(grid))
        term = wc.terminal_state(grid, z, prob.potential, u)
        column = dual_to_rho(grid, term.velocity, -term.position)
        assert np.max(np.abs(Ct[:, k] - column)) <= 1e-12 * np.max(np.abs(column))


def test_oracle_optimality_against_feasible_perturbations():
    prob = oracle_problem(eps=0.0)
    Ct = _constraint_rows(_GramianOperator(prob.grid, prob.region, None))[0]
    c = _free_response(prob)[2]
    ut, *_ = np.linalg.lstsq(Ct, c, rcond=None)
    # null-space directions of the constraint keep the terminal condition
    u, s, vt = np.linalg.svd(Ct, full_matrices=True)
    rank = int(np.sum(s > s[0] * 1e-10))
    kernel = vt[rank:].T
    rng = np.random.default_rng(0)
    base = float(ut @ ut)
    for _ in range(10):
        delta = kernel @ rng.standard_normal(kernel.shape[1])
        pert = ut + delta
        assert float(pert @ pert) > base
        # terminal condition unchanged
        assert np.allclose(Ct @ pert, Ct @ ut, atol=1e-9 * np.linalg.norm(c))


def test_oracle_size_cap_and_sharpness():
    big = wc.SpaceTimeGrid((1.0,), (200,), T=2.5, nt=600)
    with pytest.raises(ConfigError, match="cap"):
        wc.dense_oracle_control(wc.LinearControlProblem(
            big, wc.interval_region(big, 0.8, 1.0)))
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    smooth = wc.interval_region(grid, 0.6, 1.0, smoothing=True)
    with pytest.raises(ConfigError, match="sharp"):
        wc.dense_oracle_control(wc.LinearControlProblem(grid, smooth))


# ---------------------------------------------------------------------------
# perturbation gap
# ---------------------------------------------------------------------------

def test_perturbation_gap_zero_for_zero_perturbation(grid, region):
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    zero = wc.SpaceTimeField.zeros(grid)
    out = wc.perturbation_gap(grid, region, None, zero, None, init,
                              cg_max_iter=150)
    assert out["gap_norm"] == 0.0


def test_perturbation_gap_builds_one_preconditioner(grid, region, monkeypatch):
    # both solves of one call share a grid, region and eps, so one P; with
    # eps = 0 the builder returns none
    build = wc.linear_control._free_wave_preconditioner
    builds = []

    def counted(*args):
        precond = build(*args)
        if precond is not None:
            builds.append(args)
        return precond

    monkeypatch.setattr("wavecontrol.linear_control._free_wave_preconditioner", counted)
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    a = wc.SpaceTimeField.constant(grid, 0.05)
    wc.perturbation_gap(grid, region, None, a, None, init, cg_max_iter=150)
    assert len(builds) == 1 and builds[0][2] == min(grid.dx) ** 2
    wc.perturbation_gap(grid, region, None, a, None, init, eps_reg=0.0, cg_max_iter=150)
    assert len(builds) == 1


def test_perturbation_gap_scales_linearly(grid, region):
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    a1 = wc.SpaceTimeField.constant(grid, 0.05)
    a2 = wc.SpaceTimeField.constant(grid, 0.10)
    opts = dict(cg_tol=1e-10, cg_max_iter=400)
    g1 = wc.perturbation_gap(grid, region, None, a1, None, init, **opts)
    g2 = wc.perturbation_gap(grid, region, None, a2, None, init, **opts)
    ratio = g2["gap_norm"] / g1["gap_norm"]
    assert 1.5 <= ratio <= 2.5
    assert g1["bound_rhs"] > 0.0
    # regression pin from the first correct run of this configuration
    assert g2["gap_norm"] == pytest.approx(0.03394270914975554, rel=1e-4)
