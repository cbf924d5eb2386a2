"""The compiled leapfrog kernel's build, cache and fallback."""

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import wavecontrol as wc
import wavecontrol.cli as cli
from wavecontrol import _leapfrog, solver

from conftest import CONFIGS, march_kernel

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


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
    sanity = CONFIGS / "linear_sanity.json"
    assert cli.main(["run", "--config", str(sanity), "--out", str(tmp_path / "ref")]) == 0
    cache = tmp_path / "xdg" / "wavecontrol"
    cache.mkdir(parents=True)
    cache.chmod(0o500)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    loader = _leapfrog.KernelLoader()
    monkeypatch.setattr(_leapfrog, "LOADER", loader)
    compiler_runs.clear()
    try:
        assert cli.main(["run", "--config", str(sanity), "--out", str(tmp_path / "ro")]) == 0
        assert loader.load() is None
    finally:
        cache.chmod(0o700)
    assert compiler_runs == []
    assert ((tmp_path / "ro" / "iterates.csv").read_bytes()
            == (tmp_path / "ref" / "iterates.csv").read_bytes())


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
