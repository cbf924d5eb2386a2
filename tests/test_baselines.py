import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol import baselines, cli, least_squares, linear_control

from conftest import CONFIGS, load_json, make_problem


def test_picard_linear_fixed_point_in_one_iteration(small_problem):
    g = wc.builtin("linear", b=0.4)
    res = wc.picard_solve(small_problem, g)
    # the first map application lands on the fixed point: the controlled
    # pair for the constant potential solves the equation exactly
    assert res.status == "converged"
    assert len(res.records) - 1 == 1
    assert res.records[-1].E <= 1e-18


def test_picard_contracts_for_weak_nonlinearity(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.2)
    res = wc.picard_solve(small_problem, g)
    assert res.status == "converged"
    deltas = [r.step_delta for r in res.records if math.isfinite(r.step_delta)]
    # measured contraction: consecutive increments shrink
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_picard_reads_g0_of_a_replaced_g():
    # picard's potential (g(y) - g(0)) / y and source -g(0) take g(0) from g:
    # h = g + 1/2, a copy of loglimit a = 1/2, is solved as loglimit a = 1
    problem = make_problem(nx=60, nt=180)
    g = wc.builtin("loglimit", a=0.5)
    h = dataclasses.replace(g, g=lambda r: g.g(r) + 0.5)
    config = wc.LSConfig(max_outer=12)
    res = wc.picard_solve(problem, h, config)
    ref = wc.picard_solve(problem, wc.builtin("loglimit", a=1.0), config)
    assert res.status == ref.status == "converged"
    assert len(res.records) == len(ref.records)


def test_variant_zero_g_is_linear_initialization(small_problem):
    g = wc.builtin("zero")
    res = wc.variant_solve(small_problem, g)
    assert res.status == "converged"
    assert len(res.records) == 1   # E_0 already at floor


def test_variant_linear_one_step_exactness(small_problem):
    g = wc.builtin("linear", b=0.4)
    res = wc.variant_solve(small_problem, g)
    assert res.status == "converged"
    assert len(res.records) - 1 == 1
    assert res.records[-1].E <= 1e-18


def test_variant_runs_on_saturated_nonlinearity(small_problem):
    g = wc.builtin("lipschitz_sat", kappa=0.5)
    res = wc.variant_solve(small_problem, g, wc.LSConfig(max_outer=30))
    assert res.status == "converged"
    for rec in res.records:
        assert math.isfinite(rec.E) and math.isfinite(rec.y_linf_L1)


def test_newton_equals_ls_under_unit_steps(small_problem):
    g = wc.builtin("linear", b=0.3)
    newton = wc.newton_classic_solve(small_problem, g)
    ls = wc.ls_solve(small_problem, g)
    assert newton.status == ls.status == "converged"
    assert [r.E for r in newton.records] == [r.E for r in ls.records]
    assert [r.lam for r in newton.records][:-1] == [r.lam for r in ls.records][:-1]


def test_newton_diverges_where_damped_converges():
    # large-data saturated cubic: unit steps overshoot and blow E up by
    # orders of magnitude while the damped iteration converges
    problem = make_problem(nx=100, nt=300, amplitude=10.0)
    g = wc.builtin("cubic_sat", R=50.0)
    newton = wc.newton_classic_solve(problem, g, wc.LSConfig(max_outer=8))
    assert newton.status in ("cap_reached", "diverged", "inner_failure")
    assert max(r.E for r in newton.records) > 100 * newton.records[0].E
    damped = wc.ls_solve(problem, g, wc.LSConfig(max_outer=20))
    assert damped.status == "converged"


def test_newton_quadratic_on_small_data():
    problem = make_problem(nx=100, nt=300, amplitude=2.0)
    g = wc.builtin("cubic_sat", R=50.0)
    res = wc.newton_classic_solve(problem, g)
    assert res.status == "converged"
    est = wc.estimate_order(res.records)
    assert est.order >= 1.7


def test_one_preconditioner_per_problem(monkeypatch):
    # every inner solve of every method on one problem shares its free-wave
    # preconditioner: one build in all, at the first solve, none at
    # construction, and none for a problem with eps = 0
    problem = make_problem(nx=40, nt=120)
    builds = []
    build = linear_control._free_wave_preconditioner

    def counted(*args):
        precond = build(*args)
        if precond is not None:
            builds.append(args)
        return precond

    monkeypatch.setattr(linear_control, "_free_wave_preconditioner", counted)
    g = wc.builtin("lipschitz_sat", kappa=2.0)
    ls_cfg = fp_cfg = wc.LSConfig(max_outer=3)
    assert builds == []
    results = [wc.ls_solve(problem, g, ls_cfg), wc.newton_classic_solve(problem, g, ls_cfg),
               wc.picard_solve(problem, g, fp_cfg), wc.variant_solve(problem, g, fp_cfg)]
    for each in results:
        # every method's iterate keeps the initial position bit for bit
        assert np.array_equal(each.y.values[0], problem.initial.position)
    res = results[0]
    for _ in range(2):
        wc.descent_direction(problem, g, res.y, res.f)
    assert len(builds) == 1
    plain = make_problem(nx=40, nt=120, eps_reg=0.0)
    wc.solve_null_control(plain)
    assert len(builds) == 1


def test_picard_steps_are_preconditioned():
    # the exact solves of the picard steps share the problem's free-wave
    # preconditioner: a few CG iterations each (129-151 unpreconditioned)
    cfg = load_json(CONFIGS / "strong_nonlinearity.json")
    problem, g, _, fp_cfg = cli.build_problem(cfg)
    res = wc.picard_solve(problem, g, fp_cfg)
    assert res.status == "cap_reached" and len(res.records) == 13
    steps = [rec.inner_cg_iters for rec in res.records[:-1]]
    assert all(rec.inner_converged for rec in res.records)
    assert max(steps) <= 15


def test_fixed_point_stagnates_at_a_spurious_fixed_point(small_problem):
    # a map that ignores y_k (the g = 0 problem at every step) lands on the
    # same pair twice: its second step moves y by 0 while E stays far above
    # the stop, and the next row reads stagnated
    step = partial(baselines._fixed_point_step, linearize=lambda grid, g, y, gp: (None, None))
    res = least_squares.iterate(small_problem, wc.builtin("linear", b=0.4), None, step,
                                "frozen")
    assert res.status == "stagnated" and len(res.records) == 3
    assert res.records[0].step_delta > 0.0 and res.records[1].step_delta == 0.0
    assert res.records[-1].E > 1e-3
