"""Competing linearization strategies for head-to-head comparison.

picard         y_{k+1} solves the linear problem with potential
               ghat(y_k) = (g(y_k) - g(0)) / y_k and source -g(0);
               a fresh minimal-norm control steers to the target each step.
newton_classic the damped least-squares iteration with lambda forced to 1.
variant        y_{k+1} is the controlled solution of the frozen-coefficient
               system with potential g'(y_k), source g'(y_k) y_k - g(y_k).

All methods share compute_E, so E values are directly comparable
across methods, and one iteration config (`LSConfig`, the outer step cap)
and one stop on E (`least_squares.reached_tolerance`).  Divergence is
flagged when |y|_{Linf(L1)} exceeds 1e6; picard and variant stop as
stagnated once a step moves y by at most STEP_TOL max(1, |y|_{Linf(L1)})
with E still above the stop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BlowupError
from .fields import SpaceTimeField, h10_norm, linf_l1, linf_lp, v_norm
from .least_squares import (DIVERGENCE_THRESHOLD, IterateRecord, LSConfig, LSResult,
                            TargetProblem, compute_E, initialize, ls_solve,
                            reached_tolerance)
from .nonlinearity import Nonlinearity

STEP_TOL = 1e-10                    # fixed-point detector on |y_{k+1} - y_k|


def newton_classic_solve(problem: TargetProblem, g: Nonlinearity,
                         config: LSConfig | None = None) -> LSResult:
    """Newton iteration: identical machinery with the step length pinned to 1."""
    return ls_solve(problem, g, config, force_lambda=1.0, method_name="newton_classic")


def _fixed_point_loop(problem, g, config, linearize, method_name):
    """Shared driver for picard and variant: each iterate is itself a
    controlled pair of a frozen linear problem."""
    config = config or LSConfig()
    grid, region = problem.grid, problem.region

    sol = initialize(problem)
    y, f = sol.trajectory, sol.control
    records = []
    status = "cap_reached"
    E0 = None
    prev_delta = math.nan
    for k in range(config.max_outer + 1):
        rec = IterateRecord(k=k, E=math.nan, sqrt_E=math.nan)
        E = compute_E(y, f, g, region)
        if E0 is None:
            E0 = E
        rec.E = float(E)
        rec.sqrt_E = math.sqrt(E)
        rec.y_linf_L1 = linf_l1(y)
        rec.gprime_linf_ld = linf_lp(SpaceTimeField(grid, g.dg(y.values)), float(grid.dim))
        rec.term_defect_V = v_norm(sol.terminal - problem.target)
        rec.inner_defect = sol.defect
        rec.inner_cg_iters = sol.cg_iterations
        rec.inner_converged = sol.converged
        rec.inner_residuals = sol.residual_history
        records.append(rec)

        if rec.y_linf_L1 > DIVERGENCE_THRESHOLD:
            status = "diverged"
            break
        if reached_tolerance(E, E0):
            status = "converged"
            break
        if prev_delta <= STEP_TOL * max(1.0, rec.y_linf_L1):
            # the map stopped moving but the residual is still above
            # tolerance: a spurious fixed point, not a solution
            status = "stagnated"
            break
        if k == config.max_outer:
            status = "cap_reached"
            break

        potential, source = linearize(grid, g, y)
        try:
            sol = problem.solve(potential, source, problem.initial, problem.target)
        except BlowupError:
            status = "inner_failure"
            break
        y_next, f_next = sol.trajectory, sol.control
        rec.step_delta = linf_l1(SpaceTimeField(grid, y_next.values - y.values))
        prev_delta = rec.step_delta
        y, f = y_next, f_next
    return LSResult(records=records, y=y, f=f, status=status,
                    E0=records[0].E if records else math.nan,
                    M_run=max((r.y_linf_L1 for r in records if math.isfinite(r.y_linf_L1)),
                              default=0.0),
                    method=method_name)


def _picard_linearization(grid, g, y):
    potential = SpaceTimeField(grid, g.hat_g(y.values))
    source = None if g.g0 == 0.0 else SpaceTimeField.constant(grid, -g.g0)
    return potential, source


def _variant_linearization(grid, g, y):
    gp = g.dg(y.values)
    potential = SpaceTimeField(grid, gp)
    source = SpaceTimeField(grid, gp * y.values - g.g(y.values))
    return potential, source


def picard_solve(problem: TargetProblem, g: Nonlinearity,
                 config: LSConfig | None = None) -> LSResult:
    """Fixed-point iteration on the secant-linearized equation."""
    return _fixed_point_loop(problem, g, config, _picard_linearization, "picard")


def variant_solve(problem: TargetProblem, g: Nonlinearity,
                  config: LSConfig | None = None) -> LSResult:
    """Frozen-derivative iteration; every iterate is a controlled pair."""
    return _fixed_point_loop(problem, g, config, _variant_linearization, "variant")


def contraction_ratio(problem: TargetProblem, g: Nonlinearity,
                      xi1: SpaceTimeField, xi2: SpaceTimeField) -> float:
    """Empirical Lipschitz quotient of the fixed-point map between two fields:

        |K(xi2) - K(xi1)|_{Linf(H^1_0)} / |xi2 - xi1|_{Linf(L^{d+1})}.
    """
    grid = problem.grid
    diff = xi2.values - xi1.values
    if float(np.max(np.abs(diff))) == 0.0:
        raise ValueError("xi1 and xi2 must differ")
    sols = [problem.solve(*_picard_linearization(grid, g, xi), problem.initial, problem.target)
            for xi in (xi1, xi2)]
    gap_vals = sols[1].trajectory.values - sols[0].trajectory.values
    num = max(h10_norm(grid, gap_vals[n]) for n in range(grid.nt + 1))
    den = linf_lp(SpaceTimeField(grid, diff), float(grid.dim + 1))
    return float(num / den)
