import math
from functools import reduce

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol import fields
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
    assert wc.l2_qt(f) == 0.0 and wc.linf_l1(f) == 0.0 and wc.linf_lp(f, grid.dim + 1) == 0.0
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


def random_state_and_field(grid, amplitude=1.0):
    rng = np.random.default_rng(11)
    pos, vel = np.zeros(grid.shape), rng.standard_normal(grid.shape)
    pos[1:-1] = rng.standard_normal(grid.shape[0] - 2)
    vals = rng.standard_normal((grid.nt + 1,) + grid.shape)
    return (wc.StatePair(grid, amplitude * pos, amplitude * vel),
            wc.SpaceTimeField(grid, amplitude * vals))


def test_norms_keep_their_bits_at_ordinary_amplitudes(grid):
    # a sum of squares well inside the normal range takes no scaled pass:
    # every norm is the plain formula, bit for bit
    state, f = random_state_and_field(grid)
    sw, mu = fields._space_weights(grid), eigenvalues(grid)
    cp, cv = sine_coefficients(grid, state.position), sine_coefficients(grid, state.velocity)
    h10 = math.sqrt(float(np.sum(mu * cp * cp)))
    l2_pos = math.sqrt(float(np.sum(sw * state.position * state.position)))
    l2_vel = math.sqrt(float(np.sum(sw * state.velocity * state.velocity)))
    hm1 = math.sqrt(float(np.sum(cv * cv / mu)))
    assert wc.v_norm(state) == math.sqrt(h10 ** 2 + l2_vel ** 2)
    assert wc.h_norm(state) == math.sqrt(l2_pos ** 2 + hm1 ** 2)
    per_level = np.sum(sw * f.values * f.values, axis=1)
    assert wc.l2_qt(f) == math.sqrt(float(np.sum(fields._time_weights(grid) * per_level)))
    for p in (1.0, 2.0, 3.0):
        per_level = np.sum(sw * np.abs(f.values) ** p, axis=1)
        assert wc.linf_lp(f, p) == float(np.max(per_level) ** (1.0 / p))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [2.0 ** -700, 1e-200, 1e300],
                         ids=["2^-700", "1e-200", "1e300"])
def test_norms_are_scale_safe(grid, amplitude):
    # squared, data below about 1e-154 would read 0 and data above about
    # 1e154 would overflow (and warn); every norm, the max-over-time ones
    # included, is homogeneous instead
    state, f = random_state_and_field(grid)
    big_state, big_f = random_state_and_field(grid, amplitude)
    for norm, a, b in [(wc.v_norm, state, big_state), (wc.h_norm, state, big_state),
                       (wc.l2_qt, f, big_f),
                       (wc.linf_v, f, big_f), (wc.linf_l1, f, big_f),
                       (lambda g: wc.linf_lp(g, 2.0), f, big_f),
                       (lambda g: wc.linf_lp(g, 3.0), f, big_f)]:
        assert norm(b) == pytest.approx(amplitude * norm(a), rel=1e-14, abs=0.0)


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


def _scipy_sine_transforms(grid, values):
    """sine_coefficients of `values` and from_sine_coefficients of its last
    level's coefficients, the way they were computed through `scipy.fft`."""
    from scipy import fft as sp_fft

    axes = tuple(range(-grid.dim, 0))
    interior = (slice(1, -1),) * grid.dim
    scale = math.sqrt(math.prod(grid.dx))
    c = scale * sp_fft.dstn(values[(Ellipsis,) + interior], type=1, norm="ortho", axes=axes)
    back = np.zeros(grid.shape)
    back[interior] = sp_fft.idstn(c[-1] / scale, type=1, norm="ortho", axes=axes)
    return c, back


@pytest.mark.parametrize("lengths,nodes", [((1.0,), (37,)), ((1.0, 2.0), (13, 17))],
                         ids=["1d", "2d"])
def test_sine_transforms_match_scipy_fft_bitwise(lengths, nodes):
    # the strided interior views the solver passes: whole fields with their
    # time axis, a time-reversed field (negative strides) and single levels
    from scipy import fft as sp_fft

    from wavecontrol.linear_control import _dst_matrices

    grid = wc.SpaceTimeGrid(lengths, nodes, T=1.0, nt=60)
    rng = np.random.default_rng(23)
    values = rng.standard_normal((grid.nt + 1,) + grid.shape)
    for v in (values, values[::-1], values[5:6], values[::7]):
        c, back = _scipy_sine_transforms(grid, v)
        assert np.array_equal(sine_coefficients(grid, v), c)
        assert np.array_equal(sine_coefficients(grid, v[-1]), c[-1])
        assert np.array_equal(from_sine_coefficients(grid, c[-1]), back)
    for S, N in zip(_dst_matrices(grid), grid.interior_shape):
        assert np.array_equal(S, sp_fft.dst(np.eye(N), type=1, norm="ortho"))


def test_sine_transform_fallback_through_scipy_fft_keeps_the_bits(monkeypatch):
    # where the binding's extension file does not load, it is imported
    # through its package, and every transform keeps its bits
    import sys

    from wavecontrol.linear_control import _dst_matrices

    class FailingLoader:
        def __init__(self, *args):
            raise ImportError("no extension file")

    grid = wc.SpaceTimeGrid((1.0, 2.0), (13, 17), T=1.0, nt=60)
    values = np.random.default_rng(29).standard_normal((grid.nt + 1,) + grid.shape)
    c = sine_coefficients(grid, values)
    back = from_sine_coefficients(grid, c[3])
    S = _dst_matrices(grid)

    monkeypatch.setattr(fields.importlib.machinery, "ExtensionFileLoader", FailingLoader)
    binding = fields._load_pocketfft()
    assert binding is sys.modules["scipy.fft._pocketfft.pypocketfft"]
    monkeypatch.setattr(fields, "_pocketfft", binding)
    assert np.array_equal(sine_coefficients(grid, values), c)
    assert np.array_equal(from_sine_coefficients(grid, c[3]), back)
    assert all(np.array_equal(a, b) for a, b in zip(_dst_matrices(grid), S))


def test_sine_transform_2d_eigenvalues():
    grid = wc.SpaceTimeGrid((1.0, 2.0), (21, 31), T=1.0, nt=80)
    mu = eigenvalues(grid)
    assert mu.shape == grid.interior_shape
    assert mu[0, 0] == pytest.approx(math.pi**2 * (1 + 1 / 4), rel=1e-12)


def test_time_reversal(grid):
    rng = np.random.default_rng(5)
    f = wc.SpaceTimeField(grid, rng.standard_normal((grid.nt + 1,) + grid.shape))
    assert np.array_equal(f.time_reversed().values, f.values[::-1])


LINF_V_GRIDS = pytest.mark.parametrize(
    "lengths,nodes,T,nt", [((1.0,), (37,), 1.0, 60), ((1.0, 2.0), (13, 17), 1.0, 60),
                           ((1.0,), (200,), 1.0, 240)],
    ids=["1d", "2d", "1d-200"])


def _linf_v_fields(grid):
    """Fields that probe `linf_v`'s bracket, by name."""
    rng = np.random.default_rng(17)
    shape = (grid.nt + 1,) + grid.shape
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    t = np.linspace(0.0, grid.T, grid.nt + 1).reshape((-1,) + (1,) * grid.dim)
    bump = np.prod([np.sin(np.pi * x / L) for x, L in zip(grid.meshgrid(), grid.lengths)],
                   axis=0)
    noise = rng.standard_normal(shape)
    # noise of 1e3 on the boundary nodes, which the sine coefficients ignore
    boundary = 1e3 * noise
    boundary[interior] = 1e-3 * noise[interior]
    # the top mode of every axis, where the bracket is widest
    checkerboard = reduce(np.multiply.outer, [(-1.0) ** np.arange(n) for n in grid.shape])
    return {
        "random": noise,
        "boundary noise": boundary,
        "top mode": (2.0 + np.cos(5.0 * t)) * checkerboard,
        "every level equal": np.repeat(noise[:1], grid.nt + 1, axis=0),
        "max at level 0": np.exp(-3.0 * t) * bump,
        "max at level nt": np.exp(3.0 * t) * bump,
    }


def _level_sums_reference(grid, values):
    """The per-level sums S_n = sum mu cp^2 + sum cv^2 of `linf_v`, each
    level transformed on its own through `scipy.fft`."""
    from scipy import fft as sp_fft

    from wavecontrol.fields import velocity_levels

    def dst_level(level):
        interior = level[(slice(1, -1),) * grid.dim]
        scale = math.sqrt(math.prod(grid.dx))
        if grid.dim == 1:
            return scale * sp_fft.dst(interior, type=1, norm="ortho")
        return scale * sp_fft.dstn(interior, type=1, norm="ortho")

    vel = velocity_levels(grid, values)
    mu = eigenvalues(grid)
    sums = []
    for n in range(grid.nt + 1):
        cp, cv = dst_level(values[n]), dst_level(vel[n])
        sums.append(float(np.sum(mu * cp * cp) + np.sum(cv * cv)))
    return np.array(sums)


@LINF_V_GRIDS
def test_linf_v_matches_per_level_reference_bitwise(lengths, nodes, T, nt):
    # the bracket transforms only the levels that can hold the max, and the
    # max over them is the max over every level, bit for bit
    from scipy import fft as sp_fft

    from wavecontrol.fields import linf_v

    grid = wc.SpaceTimeGrid(lengths, nodes, T=T, nt=nt)
    fields_by_name = _linf_v_fields(grid)
    f = wc.SpaceTimeField(grid, fields_by_name["random"])
    batched = sine_coefficients(grid, f.values)
    for n in range(grid.nt + 1):
        interior = f.values[n][(slice(1, -1),) * grid.dim]
        level = sp_fft.dstn(interior, type=1, norm="ortho")
        assert np.array_equal(batched[n], math.sqrt(math.prod(grid.dx)) * level)
    for name, values in fields_by_name.items():
        f = wc.SpaceTimeField(grid, values)
        for g in (f, f.time_reversed()):
            sums = _level_sums_reference(grid, g.values)
            assert linf_v(g) == math.sqrt(float(np.max(sums))), name
    ends = [int(np.argmax(_level_sums_reference(grid, fields_by_name[name])))
            for name in ("max at level 0", "max at level nt")]
    assert ends == [0, grid.nt]


@LINF_V_GRIDS
def test_level_bracket_holds_at_every_level(lengths, nodes, T, nt):
    # lo_n <= S_n <= hi_n, to within the margin that allows for rounding
    from wavecontrol.fields import velocity_levels

    grid = wc.SpaceTimeGrid(lengths, nodes, T=T, nt=nt)
    margin = 1.0 - fields._bracket_floor(grid)
    assert 0.0 < margin < 1e-8
    for name, values in _linf_v_fields(grid).items():
        sums = _level_sums_reference(grid, values)
        lo, hi = fields._level_bracket(grid, values, velocity_levels(grid, values))
        assert np.all(lo <= sums * (1.0 + margin)), name
        assert np.all(sums <= hi * (1.0 + margin)), name


def test_theta_inequality_of_the_bracket():
    # (theta / sin theta)^2 - 1 <= (pi^2/4 - 1) sin^2 theta on (0, pi/2], with
    # equality at pi/2: so mu_k <= lambda_k + (pi^2/4 - 1) (h^2/4) lambda_k^2
    theta = np.linspace(0.0, math.pi / 2, 200_001)[1:]
    lhs = (theta / np.sin(theta)) ** 2 - 1.0
    rhs = (math.pi ** 2 / 4 - 1.0) * np.sin(theta) ** 2
    assert np.all(lhs <= rhs)
    assert lhs[-1] == rhs[-1] == math.pi ** 2 / 4 - 1.0
    assert np.all(rhs[:-1] - lhs[:-1] > 0.0)
    # on a grid's modes: lambda_k <= mu_k <= that bound, k = 1..N-2, per axis
    for n in (5, 37, 200):
        grid = wc.SpaceTimeGrid((2.0,), (n,), T=1.0, nt=2 * n)
        (h,) = grid.dx
        lam = (4.0 / h ** 2) * np.sin(np.arange(1, n - 1) * math.pi / (2 * (n - 1))) ** 2
        mu = eigenvalues(grid)
        assert np.all(lam <= mu * (1 + 1e-15))
        assert np.all(mu <= (lam + (math.pi ** 2 / 4 - 1) * h ** 2 / 4 * lam ** 2) * (1 + 1e-15))


@pytest.mark.parametrize("n", [38, 98, 198])
def test_sine_transform_error_is_inside_the_bracket_bound(n):
    # linf_v's margin allows each axis of a transform a relative 2-norm error
    # of 2^-44; pocketfft's, against an extended-precision matrix product,
    # is a few units of roundoff, also at 198 (an FFT of 2 * 199 points)
    k = np.arange(1, n + 1)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    S = np.sqrt(np.longdouble(2) / (n + 1)) * np.sin(np.outer(k, k) % (2 * (n + 1)) * pi / (n + 1))
    x = np.random.default_rng(n).standard_normal((8, n)) / k ** np.arange(8)[:, None]
    exact = x.astype(np.longdouble) @ S
    error = np.sum((fields.dst1(x, (-1,)) - exact) ** 2, axis=1) / np.sum(exact ** 2, axis=1)
    assert math.sqrt(float(np.max(error))) <= fields._TRANSFORM_ERROR / 16


def test_linf_v_transforms_few_levels_of_a_driven_field(desk_problem, monkeypatch):
    # the first descent direction Y1 of the canonical Lipschitz run is smooth:
    # its max over time is at a few of its 601 levels, and only those are
    # transformed (every level was, twice, before the bracket)
    from wavecontrol.least_squares import initialize

    g = wc.builtin("lipschitz_sat", kappa=5.0)
    start = initialize(desk_problem)
    Y1 = wc.descent_direction(desk_problem, g, start.trajectory, start.control)[0]
    rows = []
    transform = fields.sine_coefficients

    def counted(grid, values):
        rows.append(len(values))
        return transform(grid, values)

    monkeypatch.setattr(fields, "sine_coefficients", counted)
    value = wc.linf_v(Y1)
    assert len(rows) == 2 and rows[0] == rows[1] <= 0.02 * (Y1.grid.nt + 1)
    monkeypatch.undo()
    assert value == math.sqrt(float(np.max(_level_sums_reference(Y1.grid, Y1.values))))


@pytest.mark.parametrize("spec,key", [
    ({"profile": "bump", "center": "mid"}, "center"),
    ({"profile": "eigenmode", "amplitude": "big"}, "amplitude"),
    ({"profile": "eigenmode", "k": "x"}, "k"),
    ({"profile": "bump", "width": "wide"}, "width"),
    ({"profile": "eigenmode", "amplitude": math.inf}, "amplitude"),   # else a NaN profile
    ({"profile": "bump", "width": math.inf}, "width"),       # else nonzero on the boundary
    ({"profile": "bump", "center": [math.inf]}, "center"),   # else silently zero
])
def test_sample_profile_non_number_is_a_config_error(grid, spec, key):
    # library calls get the same ConfigError the CLI's validation gives
    with pytest.raises(ConfigError, match=f"'{key}'"):
        wc.sample_profile(grid, spec)
