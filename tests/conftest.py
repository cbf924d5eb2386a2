"""Shared fixtures: canonical problems and the expensive desk-scale runs."""

import json
from pathlib import Path

import numpy as np
import pytest

import wavecontrol as wc

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def configs_dir():
    return CONFIGS


def make_problem(nx=80, nt=240, T=2.5, omega=(0.8, 1.0), amplitude=2.0, **kwargs):
    grid = wc.SpaceTimeGrid((1.0,), (nx,), T=T, nt=nt)
    region = wc.interval_region(grid, *omega)
    (X,) = grid.meshgrid()
    init = wc.StatePair(grid, amplitude * np.sin(np.pi * X), np.zeros(grid.shape))
    return wc.TargetProblem(grid, region, init, wc.StatePair.zeros(grid), **kwargs)


@pytest.fixture(scope="session")
def small_problem():
    return make_problem()


@pytest.fixture(scope="session")
def desk_problem():
    """The 1D desk-scale scenario: nx=200, nt=600, T=2.5, omega=(0.8, 1)."""
    return make_problem(nx=200, nt=600, T=2.5, amplitude=3.0)


@pytest.fixture(scope="session")
def desk_lipschitz_run(desk_problem):
    """Canonical saturated-Lipschitz run shared by the convergence criteria."""
    import time

    g = wc.builtin("lipschitz_sat", kappa=5.0)
    t0 = time.perf_counter()
    res = wc.ls_solve(desk_problem, g, wc.LSConfig())
    res.wall = time.perf_counter() - t0
    return res


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
