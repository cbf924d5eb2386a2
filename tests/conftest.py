"""Shared fixtures: canonical problems and the expensive desk-scale runs."""

import contextlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol import _leapfrog

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"

# the compiled kernel is under test wherever a compiler is
MARCH_KERNELS = ("numpy", "compiled") if shutil.which("cc") else ("numpy",)
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """The compiled kernel's cache for the session, outside the user's home.

    Subprocesses the tests start inherit it through the environment."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


class _NoKernel:
    def load(self):
        return None


@contextlib.contextmanager
def march_kernel(name):
    """March, and evaluate the line search's E, on one kernel of
    MARCH_KERNELS inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "numpy":
            mp.setattr(_leapfrog, "LOADER", _NoKernel())
        else:
            assert _leapfrog.LOADER.load() is not None, "cc is on PATH, the kernel must load"
        yield


@pytest.fixture(scope="session")
def configs_dir():
    return CONFIGS


def make_problem(nx=80, nt=240, T=2.5, omega=(0.8, 1.0), amplitude=2.0, **kwargs):
    grid = wc.SpaceTimeGrid((1.0,), (nx,), T=T, nt=nt)
    region = wc.interval_region(grid, *omega)
    (X,) = grid.meshgrid()
    init = wc.StatePair(grid, amplitude * np.sin(np.pi * X), np.zeros(grid.shape))
    return wc.LinearControlProblem(grid, region, initial=init, **kwargs)


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
