import math

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol.errors import ConfigError
from wavecontrol.nonlinearity import Nonlinearity

TANH_SEMINORM = 4 / (3 * math.sqrt(3))


@pytest.mark.parametrize("name,params", [
    ("zero", {}),
    ("linear", {"b": 0.7}),
    ("lipschitz_sat", {"kappa": 1.0}),
    ("loglimit", {"a": 0.3, "b": -0.2, "c": 1.0}),
    ("cubic_sat", {"R": 50.0}),
])
def test_builtins_construct_and_are_consistent(name, params):
    g = wc.builtin(name, **params)   # construction runs the g/g' check
    assert g.name == name
    assert 0 <= g.s <= 1


def test_zero_builtin_values():
    g = wc.builtin("zero")
    assert float(g.g(5.0)) == 0.0 and float(g.dg(5.0)) == 0.0
    assert g.seminorm == 0.0


def test_unknown_name_and_bad_params():
    with pytest.raises(ConfigError):
        wc.builtin("nope")
    with pytest.raises(ConfigError):
        wc.builtin("linear", q=2.0)


def test_lipschitz_sat_derivative_and_seminorm():
    g = wc.builtin("lipschitz_sat", kappa=1.0)
    assert float(g.dg(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert g.seminorm == pytest.approx(TANH_SEMINORM, rel=1e-15)


def test_loglimit_origin_and_series_branch():
    g = wc.builtin("loglimit", a=0.0, b=0.0, c=1.0)
    assert float(g.g(0.0)) == 0.0
    assert float(g.dg(0.0)) == 0.0
    # derivative is continuous across the series switch at |r| = 1e-6
    # (series truncation leaves an O(r^(5/2)) mismatch)
    lo, hi = float(g.dg(1e-6 * (1 - 1e-9))), float(g.dg(1e-6 * (1 + 1e-9)))
    assert abs(lo - hi) < 1e-11
    # two-sided difference quotient of g matches the guarded derivative
    for r in (1e-7, 1e-4, 0.3, 5.0):
        h = 1e-9 * max(1.0, r)
        fd = (float(g.g(r + h)) - float(g.g(r - h))) / (2 * h)
        assert fd == pytest.approx(float(g.dg(r)), rel=2e-4, abs=1e-7)


def test_cubic_sat_blend_is_c1_and_saturates():
    R = 10.0
    g = wc.builtin("cubic_sat", R=R)
    # inside: exact cubic
    assert float(g.g(2.0)) == 8.0 and float(g.dg(2.0)) == 12.0
    # continuity of g and g' across both blend edges
    for edge in (R, 1.2 * R):
        below, above = edge * (1 - 1e-10), edge * (1 + 1e-10)
        assert float(g.g(above)) - float(g.g(below)) == pytest.approx(0.0, abs=1e-5)
        assert float(g.dg(above)) - float(g.dg(below)) == pytest.approx(0.0, abs=1e-4)
    # saturation beyond the blend
    assert float(g.g(100.0)) == pytest.approx(1.3 * R**3, rel=1e-14)
    assert float(g.dg(100.0)) == 0.0
    assert float(g.g(-100.0)) == pytest.approx(-1.3 * R**3, rel=1e-14)


def _smoothstep(t):
    return t * t * (3 - 2 * t)


def reference_cubic_sat(R):
    """g and g' of cubic_sat as whole-array blends, the reference for the
    vectorized builtin: both must give the same bits."""
    def g(r):
        r = np.asarray(r, dtype=float)
        ar = np.abs(r)
        sign = np.sign(r)
        t = np.clip((ar - R) / (0.2 * R), 0.0, 1.0)
        blend = R**3 + 0.6 * R**3 * (t - t**3 + 0.5 * t**4)
        out = np.where(ar <= R, r * r * r, sign * blend)
        return np.where(ar >= 1.2 * R, sign * 1.3 * R**3, out)

    def dg(r):
        r = np.asarray(r, dtype=float)
        ar = np.abs(r)
        t = np.clip((ar - R) / (0.2 * R), 0.0, 1.0)
        out = np.where(ar <= R, 3 * r * r, 3 * R * R * (1 - _smoothstep(t)))
        return np.where(ar >= 1.2 * R, 0.0, out)

    return g, dg


@pytest.mark.parametrize("R", [50.0, 1.0, 3.7])
def test_cubic_sat_matches_whole_array_blend_bitwise(R):
    nl = wc.builtin("cubic_sat", R=R)
    ref_g, ref_dg = reference_cubic_sat(R)
    edges = [R, -R, 1.2 * R, -1.2 * R, np.nextafter(R, 0.0), np.nextafter(R, 2 * R),
             np.nextafter(1.2 * R, 0.0), np.nextafter(1.2 * R, 2 * R), 0.0, -0.0,
             np.inf, -np.inf]
    rng = np.random.default_rng(7)
    r = np.concatenate([edges, rng.uniform(-2 * R, 2 * R, 5000)])
    field = rng.uniform(-1.5 * R, 1.5 * R, (31, 40))
    for new, ref in ((nl.g, ref_g), (nl.dg, ref_dg)):
        for x in (r, field, field[:, ::3]):
            out = new(x)
            assert out.shape == np.shape(x)
            assert np.array_equal(out, ref(x))
            assert np.array_equal(np.signbit(out), np.signbit(ref(x)))
        assert np.isnan(new(np.array([np.nan, 1.0])))[0] and np.isnan(ref(np.nan))
        # a 0-d input gives a 0-d array, as the blend's np.where does
        for x in (0.0, -0.0, R, -1.2 * R, 2.0, 100.0, np.nan):
            out, want = new(x), ref(x)
            assert type(out) is type(want) and out.shape == want.shape == ()
            assert np.array_equal(out, want, equal_nan=True)
            assert np.signbit(out) == np.signbit(want)


@pytest.mark.parametrize("R", [50.0, 1.0, 3.7])
def test_cubic_sat_within_one_ulp_of_pow(R):
    # r * r * r rounds twice where libm pow rounds once: at most 1 ulp apart
    g = wc.builtin("cubic_sat", R=R).g
    edges = [R, -R, np.nextafter(R, 0.0), -np.nextafter(R, 0.0), 0.0, -0.0,
             1.0, -1.0, 1e-100, -1e-100, 1e-200, np.nextafter(0.0, 1.0)]
    rng = np.random.default_rng(11)
    r = np.concatenate([edges, rng.uniform(-R, R, 10**5)])
    want = r**3
    assert np.all(np.abs(g(r) - want) <= np.spacing(np.abs(want)))
    assert np.array_equal(np.signbit(g(r)), np.signbit(want))


def test_hat_g_linear_and_quadratic():
    g = wc.builtin("linear", b=0.7)
    for r in (-3.0, 1e-12, 0.0, 2.0):
        assert float(g.hat_g(r)) == pytest.approx(0.7, rel=1e-12)
    # g(r) = r^2 has hat_g(2) = (4 - 0)/2 = 2
    quad = Nonlinearity("quad", lambda r: np.asarray(r, float) ** 2,
                        lambda r: 2 * np.asarray(r, float), s=1.0,
                        seminorm=2.0, alpha=None, beta=None)
    assert float(quad.hat_g(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_hat_g_continuity_at_switch():
    g = wc.builtin("lipschitz_sat", kappa=1.0)
    a, b = float(g.hat_g(1e-8)), float(g.hat_g(2e-8))
    assert abs(a - b) <= 1e-7


def test_holder_sample_linear_is_zero():
    g = wc.builtin("linear", b=2.0)
    assert wc.holder_seminorm_sample(g, 1.0, R=10.0, n_samples=500) == 0.0


def test_holder_sample_quadratic_quotient_is_one():
    half_square = Nonlinearity("halfsq", lambda r: 0.5 * np.asarray(r, float) ** 2,
                               lambda r: np.asarray(r, float), s=1.0,
                               seminorm=1.0, alpha=None, beta=None)
    lb = wc.holder_seminorm_sample(half_square, 1.0, R=10.0, n_samples=500)
    assert lb == pytest.approx(1.0, abs=1e-12)


def test_holder_sample_tanh_bracket():
    g = wc.builtin("lipschitz_sat", kappa=1.0)
    lb = wc.holder_seminorm_sample(g, 1.0, R=10.0, n_samples=10000)
    assert lb <= TANH_SEMINORM + 1e-9
    assert lb >= 0.99 * TANH_SEMINORM


def test_growth_check_zero_and_loglimit():
    assert wc.check_growth_H2(wc.builtin("zero"), 0.0, 0.0).holds
    g = wc.builtin("loglimit", a=0.0, b=0.0, c=1.0)
    res = wc.check_growth_H2(g, alpha=0.5, beta=1.0, R=1e6)
    assert res.holds and res.witness is None


def test_growth_check_cubic_violation_with_witness():
    g = wc.builtin("cubic_sat", R=50.0)
    res = wc.check_growth_H2(g, alpha=3.0, beta=1.0, R=100.0)
    assert not res.holds
    # first violation where 3 r^2 exceeds 3 + ln^(1/2): |r| slightly above 1
    assert abs(res.witness) > 1.0 and abs(res.witness) < 2.0


def test_beta_star_values_and_monotonicity():
    assert wc.beta_star(0.0, 1.0) == 0.0
    assert wc.beta_star(1.0, 1.0) == pytest.approx(math.sqrt(1 / 6), rel=1e-15)
    samples = [wc.beta_star(s, 2.0) for s in np.linspace(0, 1, 11)]
    assert all(b2 > b1 for b1, b2 in zip(samples, samples[1:]))
    with pytest.raises(ConfigError):
        wc.beta_star(0.5, 0.0)


def test_declared_seminorm_not_exceeded_by_sampler():
    for name, params in (("lipschitz_sat", {"kappa": 2.0}), ("cubic_sat", {"R": 5.0}),
                         ("linear", {"b": 1.0}), ("zero", {})):
        g = wc.builtin(name, **params)
        lb = wc.holder_seminorm_sample(g, g.s, R=8.0, n_samples=4000)
        assert lb <= g.seminorm + 1e-9
