"""The compiled leapfrog kernel's build, cache and fallback."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import wavecontrol as wc
import wavecontrol.cli as cli
from wavecontrol import _leapfrog, solver

from conftest import CONFIGS, MARCH_KERNELS, march_kernel, needs_cc


@pytest.fixture
def compiler_runs(monkeypatch):
    """Every subprocess.run call of the loader, recorded before it runs."""
    calls = []
    real_run = subprocess.run

    def run(cmd, *args, **kwargs):
        calls.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(_leapfrog.subprocess, "run", run)
    return calls


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache and a loader that has not loaded yet, in use by the solver."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    loader = _leapfrog.KernelLoader()
    monkeypatch.setattr(_leapfrog, "LOADER", loader)
    return tmp_path / "xdg" / "wavecontrol", loader


def problem_1d():
    grid = wc.SpaceTimeGrid((1.0,), (41,), T=1.0, nt=90)
    (X,) = grid.meshgrid()
    init = wc.StatePair(grid, np.sin(np.pi * X), np.zeros(grid.shape))
    return grid, wc.SpaceTimeField.constant(grid, 0.5), init


def test_cache_dir_follows_xdg_then_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _leapfrog.cache_dir() == tmp_path / "xdg" / "wavecontrol"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _leapfrog.cache_dir() == tmp_path / "home" / ".cache" / "wavecontrol"


@needs_cc
def test_compiled_kernel_is_in_use_when_cc_is_on_path(monkeypatch):
    # a broken build must fail here, not fall back to numpy unnoticed
    assert _leapfrog.LOADER.load() is not None

    def numpy_march(*args):
        raise AssertionError("the numpy march ran")

    monkeypatch.setattr(solver, "_march_1d", numpy_march)
    grid, A, init = problem_1d()
    wc.solve_forward(grid, A, None, init)


@needs_cc
def test_second_load_is_a_cache_hit(cold_cache, compiler_runs):
    cache, loader = cold_cache
    assert loader.load() is not None
    assert len(compiler_runs) == 1
    assert oct(os.stat(cache).st_mode & 0o777) == oct(0o700)
    (built,) = cache.iterdir()          # the temporary file was renamed into place
    assert built.name.startswith("leapfrog-") and built.suffix == ".so"
    assert _leapfrog.KernelLoader().load() is not None
    assert len(compiler_runs) == 1


def test_unwritable_cache_falls_back_without_compiling(tmp_path, monkeypatch, compiler_runs):
    # linear_sanity marches no potential; lipschitz_default marches a 1D
    # potential, a source and the potential in reversed time
    names = ("linear_sanity", "lipschitz_default")

    def run(name, out):
        config = str(CONFIGS / f"{name}.json")
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / out / name)]) == 0

    for name in names:
        run(name, "ref")
    cache = tmp_path / "xdg" / "wavecontrol"
    cache.mkdir(parents=True)
    cache.chmod(0o500)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    loader = _leapfrog.KernelLoader()
    monkeypatch.setattr(_leapfrog, "LOADER", loader)
    compiler_runs.clear()
    try:
        for name in names:
            run(name, "ro")
        assert loader.load() is None
    finally:
        cache.chmod(0o700)
    assert compiler_runs == []
    for name in names:
        assert ((tmp_path / "ro" / name / "iterates.csv").read_bytes()
                == (tmp_path / "ref" / name / "iterates.csv").read_bytes()), name


def march_case(nodes, nt):
    """A grid, a random potential array and initial data for raw marches."""
    grid = wc.SpaceTimeGrid((1.0,) * len(nodes), nodes, T=1.0, nt=nt)
    rng = np.random.default_rng(len(nodes))
    A = rng.uniform(0.0, 2.0, (nt + 1,) + grid.shape)
    pos = np.zeros(grid.shape)
    pos[(slice(1, -1),) * grid.dim] = rng.standard_normal(grid.interior_shape)
    return grid, A, wc.StatePair(grid, pos, rng.standard_normal(grid.shape))


@needs_cc
def test_compiled_march_checks_the_fields_it_reads():
    assert _leapfrog.LOADER.load() is not None
    grid1, A1, init1 = march_case((41,), 90)
    grid2, A2, init2 = march_case((9, 11), 40)
    unreadable = {
        "float32": (grid1, A1.astype(np.float32), init1),
        "level count": (grid1, A1[:-1], init1),
        "reversed nodes": (grid1, A1[:, ::-1], init1),
        "fortran 2d": (grid2, np.asfortranarray(A2), init2),
    }
    for name, (grid, field, init) in unreadable.items():
        for A, S in ((field, None), (None, field)):
            y = np.zeros((grid.nt + 1,) + grid.shape)
            with pytest.raises(ValueError):
                solver._march(grid, y, init.position, init.velocity, A, S)
            assert not y[2:].any(), name        # the kernel did not run
    # a potential in reversed time is read with a negative level stride
    for grid, A, init in ((grid1, A1, init1), (grid2, A2, init2)):
        with march_kernel("numpy"):
            expected = wc.solve_backward(grid, wc.SpaceTimeField(grid, A), init).values
        y = np.zeros((grid.nt + 1,) + grid.shape)
        solver._march(grid, y, init.position, -init.velocity, A[::-1], None)
        assert np.array_equal(y[::-1], expected)


@needs_cc
def test_threads_on_a_cold_cache_build_once(cold_cache, compiler_runs):
    # more threads than cores, switching often, all marching at once
    grid, A, init = problem_1d()
    n = 4
    start = threading.Barrier(n)
    results = [None] * n

    def march(i):
        start.wait(timeout=30)
        results[i] = wc.solve_forward(grid, A, None, init).values

    threads = [threading.Thread(target=march, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(compiler_runs) == 1
    assert cold_cache[1].load() is not None
    with march_kernel("numpy"):
        reference = wc.solve_forward(grid, A, None, init).values
    for values in results:
        assert np.array_equal(values, reference)


def test_public_solves_take_fields_of_any_layout():
    # a field built from outside the package is stored in C order, so the
    # compiled march reads a Fortran-ordered or node-reversed array too
    for nodes, nt in (((41,), 90), ((9, 11), 40)):
        grid, A, init = march_case(nodes, nt)
        layouts = (np.asfortranarray(A), A[..., ::-1].copy()[..., ::-1])
        for kernel in MARCH_KERNELS:
            with march_kernel(kernel):
                field = wc.SpaceTimeField(grid, A)
                expected = wc.solve_forward(grid, field, field, init).values
                for values in layouts:
                    field = wc.SpaceTimeField(grid, values)
                    y = wc.solve_forward(grid, field, field, init).values
                    assert np.array_equal(y, expected), kernel
