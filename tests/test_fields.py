import math

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol.errors import ConfigError
from wavecontrol.fields import (eigenvalues, from_sine_coefficients, h10_norm,
                                hminus1_norm, sine_coefficients, space_l2)


@pytest.fixture()
def grid():
    return wc.SpaceTimeGrid((1.0,), (101,), T=1.0, nt=200)


def test_field_shape_and_finiteness(grid):
    with pytest.raises(ConfigError):
        wc.SpaceTimeField(grid, np.zeros((5, 5)))
    bad = np.zeros((grid.nt + 1,) + grid.shape)
    bad[17, 3] = np.nan
    with pytest.raises(ConfigError, match="17"):
        wc.SpaceTimeField(grid, bad)


def test_state_pair_boundary_enforcement(grid):
    pos = np.ones(grid.shape)
    with pytest.raises(ConfigError, match="boundary"):
        wc.StatePair(grid, pos, np.zeros(grid.shape))
    # roundoff-level boundary values are zeroed, not rejected
    x = grid.axis_nodes(0)
    p = np.sin(np.pi * x)
    s = wc.StatePair(grid, p, np.zeros(grid.shape))
    assert s.position[0] == 0.0 and s.position[-1] == 0.0


def test_zero_field_norms(grid):
    f = wc.SpaceTimeField.zeros(grid)
    n = wc.norms(f)
    assert n["L2_QT"] == 0.0 and n["Linf_L1"] == 0.0 and n["Linf_Lp"] == 0.0
    pair = wc.StatePair.zeros(grid)
    assert wc.v_norm(pair) == 0.0 and wc.h_norm(pair) == 0.0


def test_constant_field_l2_qt_is_exact(grid):
    f = wc.SpaceTimeField.constant(grid, 1.0)
    assert wc.l2_qt(f) == pytest.approx(1.0, abs=1e-12)


def test_eigenmode_spectral_norms(grid):
    x = grid.axis_nodes(0)
    v = np.sin(np.pi * x)
    assert space_l2(grid, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert hminus1_norm(grid, v) == pytest.approx(1 / (math.pi * math.sqrt(2)), abs=1e-12)
    assert h10_norm(grid, v) == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)


def test_norm_homogeneity(grid):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((grid.nt + 1,) + grid.shape)
    f = wc.SpaceTimeField(grid, vals)
    g = wc.SpaceTimeField(grid, 3.7 * vals)
    assert wc.l2_qt(g) == pytest.approx(3.7 * wc.l2_qt(f), rel=1e-13)
    assert wc.linf_l1(g) == pytest.approx(3.7 * wc.linf_l1(f), rel=1e-13)
    assert wc.linf_lp(g, 2.0) == pytest.approx(3.7 * wc.linf_lp(f, 2.0), rel=1e-13)


def test_v_h_norm_zero_iff_zero(grid):
    x = grid.axis_nodes(0)
    pair = wc.StatePair(grid, 1e-3 * np.sin(np.pi * x), np.zeros(grid.shape))
    assert wc.v_norm(pair) > 0 and wc.h_norm(pair) > 0


def test_sine_transform_roundtrip_and_parseval(grid):
    rng = np.random.default_rng(3)
    v = np.zeros(grid.shape)
    v[1:-1] = rng.standard_normal(grid.shape[0] - 2)
    c = sine_coefficients(grid, v)
    back = from_sine_coefficients(grid, c)
    assert np.allclose(back, v, atol=1e-13)
    assert float(np.sum(c * c)) == pytest.approx(space_l2(grid, v) ** 2, rel=1e-13)


def test_sine_transform_2d_eigenvalues():
    grid = wc.SpaceTimeGrid((1.0, 2.0), (21, 31), T=1.0, nt=80)
    mu = eigenvalues(grid)
    assert mu.shape == grid.interior_shape
    assert mu[0, 0] == pytest.approx(math.pi**2 * (1 + 1 / 4), rel=1e-12)


def test_field_serialization_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(11)
    f = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    binpath = tmp_path / "field.bin"
    f.to_binary(binpath)
    back = wc.SpaceTimeField.from_binary(grid, binpath)
    assert np.array_equal(back.values, f.values)
    csvpath = tmp_path / "field.csv"
    f.to_csv(csvpath)
    lines = csvpath.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == grid.nt + 2
    first_data = np.array([float(tok) for tok in lines[1].split(",")])
    assert np.array_equal(first_data, f.values[0])


def test_time_reversal(grid):
    rng = np.random.default_rng(5)
    f = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    assert np.array_equal(f.time_reversed().values, f.values[::-1])


@pytest.mark.parametrize("lengths,nodes", [((1.0,), (37,)), ((1.0, 2.0), (13, 17))],
                         ids=["1d", "2d"])
def test_linf_v_matches_per_level_reference_bitwise(lengths, nodes):
    from scipy import fft as sp_fft

    from wavecontrol.fields import linf_v, velocity_levels

    grid = wc.SpaceTimeGrid(lengths, nodes, T=1.0, nt=60)
    rng = np.random.default_rng(17)
    f = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))

    def dst_level(level):
        interior = level[(slice(1, -1),) * grid.dim]
        scale = math.sqrt(math.prod(grid.dx))
        if grid.dim == 1:
            return scale * sp_fft.dst(interior, type=1, norm="ortho")
        return scale * sp_fft.dstn(interior, type=1, norm="ortho")

    vel = velocity_levels(grid, f.values)
    batched = sine_coefficients(grid, f.values)
    mu = eigenvalues(grid)
    best = 0.0
    for n in range(grid.nt + 1):
        cp, cv = dst_level(f.values[n]), dst_level(vel[n])
        assert np.array_equal(batched[n], cp)
        best = max(best, float(np.sum(mu * cp * cp) + np.sum(cv * cv)))
    assert linf_v(f) == math.sqrt(best)


@pytest.mark.parametrize("spec,key", [
    ({"profile": "bump", "center": "mid"}, "center"),
    ({"profile": "eigenmode", "amplitude": "big"}, "amplitude"),
    ({"profile": "eigenmode", "k": "x"}, "k"),
    ({"profile": "bump", "width": "wide"}, "width"),
])
def test_sample_profile_non_number_is_a_config_error(grid, spec, key):
    # library calls get the same ConfigError the CLI's validation gives
    with pytest.raises(ConfigError, match=f"'{key}'"):
        wc.sample_profile(grid, spec)
