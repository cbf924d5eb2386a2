"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

import wavecontrol as wc
import wavecontrol.cli as cli
from wavecontrol.least_squares import initialize
from wavecontrol.linear_control import seed_from_rho

from conftest import CONFIGS, load_json


def check(n, desc, ok, detail=""):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"criterion {n}: {desc} ({detail})"


def test_criterion_01_solver_second_order():
    t0 = time.perf_counter()
    errors = []
    for nx, nt in ((51, 63), (101, 126)):
        grid = wc.SpaceTimeGrid((1.0,), (nx,), T=1.0, nt=nt)
        x = grid.axis_nodes(0)
        init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
        y = wc.solve_forward(grid, None, None, init)
        exact = np.sin(np.pi * x)[None, :] * np.cos(np.pi * grid.time_levels())[:, None]
        errors.append(float(np.max(np.abs(y.values - exact))))
    ratio = errors[0] / errors[1]
    elapsed = time.perf_counter() - t0
    check(1, "eigenmode error ratio under mesh halving in [3.5, 4.5]",
          3.5 <= ratio <= 4.5 and elapsed < 1.0,
          f"ratio={ratio:.3f}, {elapsed:.2f}s")


def test_criterion_02_gramian_symmetry_positivity():
    t0 = time.perf_counter()
    grid = wc.SpaceTimeGrid((1.0,), (60,), T=2.5, nt=200)
    region = wc.interval_region(grid, 0.8, 1.0)
    (x,) = grid.meshgrid()
    tl = grid.time_levels()
    A = wc.SpaceTimeField(grid, 1.2 * np.sin(3 * x)[None, :] * np.cos(tl)[:, None] + 0.4)
    n = 2 * (grid.shape[0] - 2)
    worst_sym, worst_pos = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s1 = seed_from_rho(grid, rng.standard_normal(n))
        s2 = seed_from_rho(grid, rng.standard_normal(n))
        p12 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s1), s2)
        p21 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s2), s1)
        worst_sym = max(worst_sym, abs(p12 - p21) / (0.5 * (abs(p12) + abs(p21))))
        p11 = wc.hum_pairing(wc.gramian_apply(grid, A, region, s1), s1)
        phi = wc.solve_backward(grid, A, s1)
        u = phi.values * region.weights
        u[-1] = 0.0
        qt2 = wc.l2_qt(wc.SpaceTimeField(grid, u)) ** 2
        worst_pos = max(worst_pos, abs(p11 - qt2) / qt2)
        assert p11 >= 0.0
    elapsed = time.perf_counter() - t0
    check(2, "Gramian symmetric and positive within 1e-10 relative, 20 seeds",
          worst_sym <= 1e-10 and worst_pos <= 1e-10 and elapsed < 30,
          f"sym={worst_sym:.1e}, pos={worst_pos:.1e}, {elapsed:.1f}s")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    grid = wc.SpaceTimeGrid((1.0,), (20,), T=2.5, nt=60)
    region = wc.interval_region(grid, 0.8, 1.0)
    (x,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * x), np.zeros(grid.shape))
    eps = min(grid.dx) ** 2
    prob = wc.LinearControlProblem(grid, region, initial=init, eps_reg=eps,
                                   cg_tol=1e-10, cg_max_iter=500)
    cg = wc.solve_null_control(prob)
    oracle = wc.dense_oracle_control(prob)
    diff = wc.SpaceTimeField(grid, cg.control.values - oracle.control.values)
    rel = wc.l2_qt(diff) / wc.l2_qt(oracle.control)
    elapsed = time.perf_counter() - t0
    check(3, "CG-HUM matches dense oracle (nx=20, nt=60, matched eps) <= 1e-4",
          rel <= 1e-4 and elapsed < 60, f"rel={rel:.2e}, {elapsed:.1f}s")


def test_criterion_04_linear_controllability():
    t0 = time.perf_counter()
    cfg = load_json(CONFIGS / "linear_sanity.json")
    problem, g, ls_cfg = cli.build_problem(cfg)
    sol = wc.solve_null_control(problem)
    rel = sol.defect / wc.v_norm(problem.initial)
    elapsed = time.perf_counter() - t0
    geometry = wc.check_geometric_condition(problem.grid, problem.region, cfg["scenario"]["x0"])
    check(4, "terminal V-defect <= 1e-6 x initial V-norm on the geometry-valid scenario",
          geometry.holds and rel <= 1e-6 and elapsed < 10,
          f"rel_defect={rel:.2e}, cg_iters={sol.cg_iterations}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def lipschitz_iterates(desk_problem):
    """First three iterates of the saturated-Lipschitz run, with directions."""
    problem = desk_problem
    g = wc.builtin("lipschitz_sat", kappa=5.0)
    sol = initialize(problem)
    y, f = sol.trajectory, sol.control
    captured = []
    for _ in range(3):
        E = wc.compute_E(y, f, g, problem.region)
        Y1, F1, inner, r, gp = wc.descent_direction(problem, g, y, f)
        captured.append((y, f, E, Y1, F1))
        ls = wc.line_search(y, r, Y1, g, gp, m=2.0)
        y = wc.SpaceTimeField(y.grid, y.values - ls.lam * Y1.values)
        f = wc.SpaceTimeField(y.grid, f.values - ls.lam * F1.values)
    return problem, g, captured


def test_criterion_05_descent_identity(lipschitz_iterates):
    problem, g, captured = lipschitz_iterates
    lam = 1e-4
    worst = 0.0
    for y, f, E, Y1, F1 in captured:
        y2 = wc.SpaceTimeField(y.grid, y.values - lam * Y1.values)
        f2 = wc.SpaceTimeField(y.grid, f.values - lam * F1.values)
        E2 = wc.compute_E(y2, f2, g, problem.region)
        fd = (E2 - E) / lam
        worst = max(worst, abs(fd + 2 * E) / (2 * E))
    check(5, "directional derivative along -(Y1, F1) equals -2E within 1%",
          worst <= 0.01, f"worst rel err={worst:.2e} over first 3 iterates")


def test_criterion_06_global_convergence(desk_lipschitz_run):
    res = desk_lipschitz_run
    E = [r.E for r in res.records]
    reduction = math.sqrt(2 * E[0]) / math.sqrt(2 * E[-1])
    decreasing = all(b < a for a, b in zip(E, E[1:]))
    order = wc.estimate_order(res.records).order
    ok = (res.status == "converged" and reduction >= 1e6 and decreasing
          and order >= 1.5 and res.wall < 300)
    check(6, "lipschitz_sat run converges >= 1e6x with order >= 1.5",
          ok, f"status={res.status}, reduction={reduction:.1e}, "
              f"order={order:.2f}, {res.wall:.0f}s")


def test_criterion_07_lambda_goes_to_one(desk_lipschitz_run):
    lams = [r.lam for r in desk_lipschitz_run.records if math.isfinite(r.lam)]
    tail = lams[-3:]
    ok = all(abs(1 - la) <= 0.1 for la in tail)
    check(7, "|1 - lambda_k| <= 0.1 on the final 3 iterations",
          ok, f"tail={['%.4f' % la for la in tail]}")


def test_criterion_08_linear_one_step_exactness():
    cfg = load_json(CONFIGS / "newton_equiv.json")
    problem, g, ls_cfg = cli.build_problem(cfg)
    assert g.name == "linear"
    res = wc.ls_solve(problem, g, wc.LSConfig(max_outer=1))
    sqrt2E_after = math.sqrt(2 * res.records[-1].E)
    bound = 10 * problem.cg_tol
    check(8, "one outer iteration reduces sqrt(2E) to <= 10x inner tolerance",
          len(res.records) == 2 and sqrt2E_after <= bound,
          f"sqrt2E={sqrt2E_after:.2e} vs bound={bound:.0e}")


def test_criterion_09_newton_equivalence_bitwise(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(CONFIGS / "newton_equiv.json"),
                     "--out", str(out)])
    rows = (out / "iterates.csv").read_text().splitlines()
    header = rows[0].split(",")
    strip = header.index("method")
    by_method = {}
    for row in rows[1:]:
        cells = row.split(",")
        by_method.setdefault(cells[strip], []).append(
            ",".join(c for i, c in enumerate(cells) if i != strip))
    ok = (code == 0 and by_method["least_squares"] == by_method["newton_classic"])
    check(9, "forced lambda=1 reproduces newton_classic records bitwise",
          ok, f"rows={len(by_method.get('least_squares', []))}")


def test_criterion_10_comparison_narrative(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(CONFIGS / "strong_nonlinearity.json"),
                     "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    ls_status = summary["methods"]["least_squares"]["status"]
    pic_status = summary["methods"]["picard"]["status"]
    ok = (ls_status == "converged" and pic_status != "converged" and code == 2)
    check(10, "strong-nonlinearity preset: least_squares converges, picard does not",
          ok, f"least_squares={ls_status}, picard={pic_status}")


def test_criterion_11_order_fit_recovery():
    from wavecontrol.least_squares import IterateRecord

    worst = 0.0
    for target in (1.0, 1.5, 2.0):
        sqrtE = [0.4 ** (target ** k) if target > 1 else 0.4 ** (k + 1)
                 for k in range(6)]
        recs = [IterateRecord(k=i, E=s * s, sqrt_E=s) for i, s in enumerate(sqrtE)]
        got = wc.estimate_order(recs).order
        worst = max(worst, abs(got - target))
    check(11, "synthetic sequences of orders {1, 1.5, 2} recovered within 0.05",
          worst <= 0.05, f"worst abs dev={worst:.3f}")


def test_criterion_12_geometry_checker_hand_values():
    grid = wc.SpaceTimeGrid((1.0,), (50,), T=2.5, nt=150)
    region = wc.interval_region(grid, 0.8, 1.0)
    rep_pass = wc.check_geometric_condition(grid, region, x0=-0.1)
    rep_fail = wc.check_geometric_condition(grid, region, x0=-0.1, T=2.0)
    ok = (rep_pass.holds and not rep_fail.holds
          and abs(rep_pass.T_min - 2.2) < 1e-12
          and abs(rep_fail.T_min - 2.2) < 1e-12
          and rep_pass.gamma0 == ("right",))
    check(12, "geometry pass/fail matches hand computation (T_min = 2.2)",
          ok, f"T_min={rep_pass.T_min:.15g}")


def test_criterion_13_determinism_byte_identical(tmp_path):
    config = str(CONFIGS / "lipschitz_default.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    c1 = cli.main(["run", "--config", config, "--out", str(out1)])
    c2 = cli.main(["run", "--config", config, "--out", str(out2)])
    b1 = (out1 / "iterates.csv").read_bytes()
    b2 = (out2 / "iterates.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    order = summary["methods"]["least_squares"]["order"]
    check(13, "two runs of the convergence scenario are byte-identical",
          c1 == 0 and c2 == 0 and b1 == b2 and order >= 1.5,
          f"{len(b1)} bytes, summary order={order:.2f}")
