"""Competing linearization strategies for head-to-head comparison.

picard         y_{k+1} solves the linear problem with potential
               ghat(y_k) = (g(y_k) - g(0)) / y_k and source -g(0);
               a fresh minimal-norm control steers to the target each step.
newton_classic the damped least-squares iteration with lambda forced to 1.
variant        y_{k+1} is the controlled solution of the frozen-coefficient
               system with potential g'(y_k), source g'(y_k) y_k - g(y_k).

Each is a step rule of `least_squares.iterate`, the one outer iteration:
every method starts from the same g = 0 controlled pair, records the
same columns, and stops by the same rules, in the same order (picard and
variant reach stagnated once a step moves y by at most
`least_squares.STEP_TOL` max(1, |y|_{Linf(L1)}) with E still above the
stop).  Row k holds the inner solve made from y_k.
"""

from __future__ import annotations

from functools import partial

from .fields import SpaceTimeField, linf_l1
from .least_squares import LSConfig, LSResult, iterate, newton_step, record_inner, solve_linear
from .linear_control import LinearControlProblem
from .nonlinearity import Nonlinearity


def newton_classic_solve(problem: LinearControlProblem, g: Nonlinearity,
                         config: LSConfig | None = None) -> LSResult:
    """Newton iteration: the least-squares step with its length pinned to 1."""
    return iterate(problem, g, config, partial(newton_step, force_lambda=1.0),
                   "newton_classic")


def _fixed_point_step(problem, g, rec, y, f, terminal, r, gp, *, linearize):
    """The next iterate: the controlled pair of the frozen linear problem
    that linearize(grid, g, y, gp) gives, gp = g'(y), an exact (not
    floor-stopped) solve."""
    sol = solve_linear(problem, *linearize(problem.grid, g, y, gp), problem.initial,
                       problem.target)
    record_inner(rec, sol)
    rec.step_delta = linf_l1(SpaceTimeField(problem.grid, sol.trajectory.values - y.values))
    return sol.trajectory, sol.control, sol.terminal


def _picard_linearization(grid, g, y, gp):
    potential = SpaceTimeField(grid, g.hat_g(y.values))
    g0 = float(g.g(0.0))
    source = None if g0 == 0.0 else SpaceTimeField.constant(grid, -g0)
    return potential, source


def _variant_linearization(grid, g, y, gp):
    return gp, SpaceTimeField(grid, gp.values * y.values - g.g(y.values))


def picard_solve(problem: LinearControlProblem, g: Nonlinearity,
                 config: LSConfig | None = None) -> LSResult:
    """Fixed-point iteration on the secant-linearized equation."""
    return iterate(problem, g, config,
                   partial(_fixed_point_step, linearize=_picard_linearization), "picard")


def variant_solve(problem: LinearControlProblem, g: Nonlinearity,
                  config: LSConfig | None = None) -> LSResult:
    """Frozen-derivative iteration; every iterate is a controlled pair."""
    return iterate(problem, g, config,
                   partial(_fixed_point_step, linearize=_variant_linearization), "variant")
