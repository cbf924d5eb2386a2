import math

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol.errors import ConfigError


def test_grid_derived_quantities():
    grid = wc.SpaceTimeGrid((1.0,), (201,), T=2.5, nt=600)
    assert grid.dim == 1
    assert grid.dx == (1.0 / 200,)
    assert grid.dt == 2.5 / 600


def test_grid_rejects_cfl_violation():
    with pytest.raises(ConfigError, match="CFL"):
        wc.SpaceTimeGrid((1.0,), (200,), T=2.5, nt=100)


def test_grid_rejects_bad_shapes_and_params():
    with pytest.raises(ConfigError):
        wc.SpaceTimeGrid((1.0,), (2,), T=1.0, nt=100)
    with pytest.raises(ConfigError):
        wc.SpaceTimeGrid((1.0,), (50,), T=-1.0, nt=100)
    with pytest.raises(ConfigError):
        wc.SpaceTimeGrid((1.0, 1.0), (50,), T=1.0, nt=100)


@pytest.mark.parametrize("lengths, nodes, T, nt, words", [
    ((1.0,), (50,), math.nan, 100, "T"),           # else dt = nan: the first march blows up
    ((1.0,), (50,), math.inf, 100, "T"),
    ((math.nan,), (50,), 1.0, 100, "lengths"),     # else dx = nan
    ((1.0, math.inf), (50, 50), 1.0, 100, "lengths"),
    ((1.0,), (50,), 1.0, 100.5, "nt"),             # else a numpy TypeError at the first solve
    ((1.0,), (50.7,), 1.0, 100, "nodes"),          # else silently 50 nodes
    ((1.0, 1.0), (50, 40.5), 1.0, 100, "nodes"),
    ((1.0,), (50,), 1.0, True, "nt"),
    ((1.0,), (50,), 1e-300, 100, r"dt\^2 = 0 "),  # else the residual stencil divides 0 by 0
    ((1.0,), (50,), 1e-155, 100, r"dt\^2 = 1e-314 is not a normal"),
    ((1e300,), (50,), 1.0, 100, r"min\(dx\)\^2 = inf"),
    (("x",), (50,), 1.0, 100, "lengths"),          # else a raw ValueError
    ((1.0,), (50,), "x", 100, "T"),                # else a raw TypeError
    ((True,), (50,), 1.0, 100, "lengths"),         # else a unit length
    ((10 ** 400,), (50,), 1.0, 100, "lengths"),    # else an OverflowError
    ((1.0,), (50,), 1.0, 10 ** 400, "nt"),
], ids=["T=nan", "T=inf", "length=nan", "length=inf", "nt=100.5", "nodes=50.7",
        "2d_nodes=40.5", "nt=True", "dt^2=0", "dt^2 subnormal", "dx^2=inf", "length=str",
        "T=str", "length=True", "length=10**400", "nt=10**400"])
def test_grid_rejects_nonfinite_and_fractional_input(lengths, nodes, T, nt, words):
    with pytest.raises(ConfigError, match=words):
        wc.SpaceTimeGrid(lengths, nodes, T=T, nt=nt)


def test_2d_grid_cfl_uses_sqrt_d():
    # passes in 1D but the same dt/dx must fail in 2D
    wc.SpaceTimeGrid((1.0,), (51,), T=1.0, nt=60)
    with pytest.raises(ConfigError, match="CFL"):
        wc.SpaceTimeGrid((1.0, 1.0), (51, 51), T=1.0, nt=60)
    wc.SpaceTimeGrid((1.0, 1.0), (51, 51), T=1.0, nt=80)


def test_interval_region_indicator():
    grid = wc.SpaceTimeGrid((1.0,), (101,), T=1.0, nt=200)
    region = wc.interval_region(grid, 0.8, 1.0)
    x = grid.axis_nodes(0)
    assert np.all(region.weights[(x > 0.8) & (x < 1.0)] == 1.0)
    assert np.all(region.weights[(x <= 0.8) | (x >= 1.0)] == 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_region_rejects_nonfinite_weights(bad):
    # a NaN compares False with both 0 and 1, so the indicator check stops
    # it before a solve
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    w = wc.interval_region(grid, 0.5, 1.0).weights.copy()
    w[2] = bad
    with pytest.raises(ConfigError, match=r"box region .*bounds.* weights other than 0 and 1"):
        wc.ControlRegion(grid, "box", {"bounds": ((0.5, 1.0),)}, w)


@pytest.mark.parametrize("bad", [0.5, 1e-300, -1e-300, 1.0 + 2.0 ** -52],
                         ids=["half", "1e-300", "-1e-300", "1+ulp"])
def test_region_weights_are_an_indicator(bad):
    # chi_omega is 0 or 1 at every node: a weight a hair off either is refused
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    w = wc.interval_region(grid, 0.5, 1.0).weights.copy()
    w[3] = bad
    with pytest.raises(ConfigError, match=r"box region .*bounds.* weights other than 0 and 1"):
        wc.ControlRegion(grid, "box", {"bounds": ((0.5, 1.0),)}, w)


def test_region_stores_c_contiguous_float64_weights():
    grid = wc.SpaceTimeGrid((1.0, 1.0), (7, 9), T=1.0, nt=30)
    w = np.asfortranarray(wc.sides_region(grid, ["left"], 0.4).weights.astype(np.float32))
    region = wc.ControlRegion(grid, "sides", {"sides": ("left",), "eps": 0.4}, w)
    assert region.weights.dtype == np.float64 and region.weights.flags.c_contiguous
    assert np.array_equal(region.weights, w)


def test_region_keeps_a_copy_of_the_callers_weights():
    # already C-contiguous float64: the region must still not freeze or
    # share the array its caller holds
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    w = np.zeros(11)
    w[5:9] = 1.0
    region = wc.ControlRegion(grid, "box", {"bounds": ((0.5, 0.8),)}, w)
    assert w.flags.writeable and region.weights is not w
    w[5:9] = 0.0
    assert np.all(region.weights[5:9] == 1.0)


def test_region_requires_nonempty_interior():
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    with pytest.raises(ConfigError, match="interior"):
        wc.interval_region(grid, 0.01, 0.04)   # no node strictly inside


def test_region_invalid_interval():
    grid = wc.SpaceTimeGrid((1.0,), (101,), T=1.0, nt=200)
    with pytest.raises(ConfigError):
        wc.interval_region(grid, 0.9, 0.2)
    with pytest.raises(ConfigError):
        wc.interval_region(grid, -0.1, 0.5)


@pytest.mark.parametrize("build, words", [
    (lambda g, g2: wc.interval_region(g, "a", 1.0), "region a"),
    (lambda g, g2: wc.interval_region(g, True, 1.0), "region a"),
    (lambda g, g2: wc.rectangle_region(g2, "a", 1, 0, 1), "region x0"),
    (lambda g, g2: wc.rectangle_region(g2, 0, True, 0, 1), "region x1"),
    (lambda g, g2: wc.sides_region(g2, ["left"], "x"), "region eps"),
    (lambda g, g2: wc.sides_region(g2, ["left"], math.inf), "region eps"),
    (lambda g, g2: wc.check_geometric_condition(g2, wc.sides_region(g2, ["left"], 0.2), "here"),
     "x0 must have 2"),
    (lambda g, g2: wc.check_geometric_condition(g2, wc.sides_region(g2, ["left"], 0.2),
                                                (-0.1, 0.5, 0.5)), "x0 must have 2"),
    (lambda g, g2: wc.check_geometric_condition(g, wc.interval_region(g, 0.5, 1.0), math.nan),
     "x0"),
    (lambda g, g2: wc.check_geometric_condition(g, wc.interval_region(g, 0.5, 1.0), -0.1,
                                                T="long"), "T"),
], ids=["interval=str", "interval=True", "rectangle=str", "rectangle=True", "eps=str",
        "eps=inf", "x0=str", "x0 of 3", "x0=nan", "T=str"])
def test_region_and_geometry_numbers_are_config_errors(build, words):
    # each number is checked where it is read, so a library call gets the
    # ConfigError a config gets, not a raw TypeError or a silent NaN
    g = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    g2 = wc.SpaceTimeGrid((1.0, 1.0), (11, 11), T=1.0, nt=30)
    with pytest.raises(ConfigError, match=words):
        build(g, g2)


def test_array_holders_compare_by_identity():
    # the generated == compared a region's grid and kind only, and raised on
    # the arrays of a field, a state or a problem; a grid compares by value
    grid = wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    assert grid == wc.SpaceTimeGrid((1.0,), (11,), T=1.0, nt=30)
    near, far = wc.interval_region(grid, 0.1, 0.3), wc.interval_region(grid, 0.5, 0.9)
    assert near == near and near != far and hash(near) != hash(far)
    zeros = wc.StatePair.zeros(grid)
    pairs = [(near, far), (wc.SpaceTimeField.zeros(grid), wc.SpaceTimeField.zeros(grid)),
             (zeros, wc.StatePair.zeros(grid)),
             (wc.LinearControlProblem(grid, near), wc.LinearControlProblem(grid, near))]
    for a, b in pairs:
        assert a == a and a != b and b != a


def test_geometry_1d_pass_and_fail():
    grid = wc.SpaceTimeGrid((1.0,), (101,), T=2.5, nt=600)
    region = wc.interval_region(grid, 0.8, 1.0)
    rep = wc.check_geometric_condition(grid, region, x0=-0.1)
    assert rep.gamma0 == ("right",)
    assert rep.T_min == pytest.approx(2.2, abs=1e-14)
    assert rep.holds

    rep2 = wc.check_geometric_condition(grid, region, x0=-0.1, T=2.0)
    assert not rep2.holds and rep2.T_min == pytest.approx(2.2, abs=1e-14)


def test_geometry_1d_region_must_touch_gamma0():
    grid = wc.SpaceTimeGrid((1.0,), (101,), T=2.5, nt=600)
    inner = wc.interval_region(grid, 0.3, 0.7)
    rep = wc.check_geometric_condition(grid, inner, x0=-0.1)
    assert not rep.covered and not rep.holds and rep.time_ok


def test_geometry_rejects_interior_x0():
    grid = wc.SpaceTimeGrid((1.0,), (101,), T=2.5, nt=600)
    region = wc.interval_region(grid, 0.8, 1.0)
    with pytest.raises(ConfigError):
        wc.check_geometric_condition(grid, region, x0=0.5)


def test_geometry_2d_star_shaped_part():
    grid = wc.SpaceTimeGrid((1.0, 1.0), (41, 41), T=3.5, nt=220)
    region = wc.sides_region(grid, ("right", "top"), eps=0.1)
    rep = wc.check_geometric_condition(grid, region, x0=(-0.2, -0.2))
    assert set(rep.gamma0) == {"right", "top"}
    # farthest corner is (1, 1): T_min = 2 sqrt(1.2^2 + 1.2^2)
    assert rep.T_min == pytest.approx(2 * math.hypot(1.2, 1.2), rel=1e-14)
    assert rep.holds

    missing = wc.sides_region(grid, ("right",), eps=0.1)
    assert not wc.check_geometric_condition(grid, missing, x0=(-0.2, -0.2)).covered


def test_geometry_2d_rectangle_coverage():
    grid = wc.SpaceTimeGrid((1.0, 1.0), (41, 41), T=3.5, nt=220)
    # from x0 = (-0.2, 0.5) the seen boundary is {right, bottom, top}; a
    # right-side slab covers only the right side
    slab = wc.rectangle_region(grid, 0.85, 1.0, 0.0, 1.0)
    rep = wc.check_geometric_condition(grid, slab, x0=(-0.2, 0.5))
    assert set(rep.gamma0) == {"right", "bottom", "top"}
    assert not rep.covered
    # a sides-type region on exactly those sides does cover
    full = wc.sides_region(grid, ("right", "bottom", "top"), eps=0.12)
    assert wc.check_geometric_condition(grid, full, x0=(-0.2, 0.5)).covered


@pytest.mark.parametrize("lengths,x0,gamma0,far", [
    ((1.0,), -0.1, ("right",), (1.1,)),
    ((1.0,), 1.3, ("left",), (1.3,)),
    ((1.0, 1.5), (-0.2, 0.5), ("right", "bottom", "top"), (1.2, 1.0)),
    ((1.0, 1.5), (1.3, 0.5), ("left", "bottom", "top"), (1.3, 1.0)),
    ((1.0, 1.5), (0.4, -0.3), ("left", "right", "top"), (0.6, 1.8)),
    ((1.0, 1.5), (0.4, 1.9), ("left", "right", "bottom"), (0.6, 1.9)),
    ((1.0, 1.5), (-0.2, -0.2), ("right", "top"), (1.2, 1.7)),
    ((1.0, 1.5), (1.2, 1.7), ("left", "bottom"), (1.2, 1.7)),
], ids=["1d-left", "1d-right", "2d-left", "2d-right", "2d-bottom", "2d-top",
        "2d-bottom-left", "2d-top-right"])
def test_geometry_closed_form_for_each_side(lengths, x0, gamma0, far):
    # Gamma_0 holds the sides whose outward normal points away from x0, and
    # the farthest point of the box is the corner at the far end of each axis
    grid = wc.SpaceTimeGrid(lengths, (41,) * len(lengths), T=1.0, nt=100)
    if len(lengths) == 1:
        region = wc.interval_region(grid, *((0.0, 0.2) if gamma0 == ("left",) else (0.8, 1.0)))
    else:
        region = wc.sides_region(grid, gamma0, eps=0.1)
    T_min = 2 * math.hypot(*far)
    rep = wc.check_geometric_condition(grid, region, x0, T=0.99 * T_min)
    assert rep.gamma0 == gamma0
    assert rep.T_min == pytest.approx(T_min, rel=1e-14)
    assert rep.covered and not rep.time_ok and not rep.holds
    assert wc.check_geometric_condition(grid, region, x0, T=1.01 * T_min).holds
