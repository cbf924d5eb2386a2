import dataclasses
import math

import numpy as np
import pytest

import wavecontrol as wc
from wavecontrol.errors import ConfigError
from wavecontrol.nonlinearity import EVAL_TOLERANCE, Nonlinearity

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


@pytest.mark.parametrize("name,params", [
    ("linear", {"b": math.nan}),
    ("lipschitz_sat", {"kappa": math.nan}),
    ("lipschitz_sat", {"kappa": math.inf}),
    ("loglimit", {"a": -math.inf}),
    ("loglimit", {"c": math.nan}),
    ("cubic_sat", {"R": math.nan}),
    ("cubic_sat", {"R": math.inf}),
    ("cubic_sat", {"R": 0.0}),
    ("cubic_sat", {"R": "wide"}),
    ("linear", {"b": True}),                   # else b = 1
    ("lipschitz_sat", {"kappa": 10 ** 400}),   # else an OverflowError
])
def test_nonfinite_or_out_of_range_parameters_are_config_errors(name, params):
    # builtin checks each parameter it reads, for a config and a library call
    # alike (a NaN kappa passed the g/g' check, since every comparison with
    # NaN is false)
    with pytest.raises(ConfigError):
        wc.builtin(name, **params)


@pytest.mark.parametrize("R", [50.0, 1.0, 3.7])
def test_cubic_sat_is_the_cube_within_its_cube_radius(R):
    # the line search forms (w w) w itself wherever |w| <= cube_radius
    g = wc.builtin("cubic_sat", R=R)
    assert g.cube_radius == R
    r = np.concatenate([np.linspace(-R, R, 2001), [R, -R, np.nextafter(R, 0.0), 0.0, -0.0],
                        np.random.default_rng(2).uniform(-R, R, 5000)])
    assert np.abs(r).max() == R
    assert np.array_equal(g.g(r), (r * r) * r)
    # a field of the dataclass, so a g wrapped through replace keeps it
    assert dataclasses.replace(g, g=lambda v: g.g(v)).cube_radius == R
    assert all(wc.builtin(name, **params).cube_radius is None for name, params in
               [("zero", {}), ("linear", {}), ("lipschitz_sat", {}), ("loglimit", {})])


@pytest.mark.parametrize("name,R", [("cube", 5.0), ("lipschitz_sat", 5.0),
                                    ("cubic_sat", 0.0), ("cubic_sat", math.inf),
                                    ("cubic_sat", math.nan), ("cubic_sat", "5")])
def test_cube_radius_is_only_cubic_sats_finite_radius(name, R):
    # the line search trusts cube_radius without calling g, so a
    # copy renamed, or given a radius that cannot bound |w|, is refused
    g = wc.builtin("cubic_sat", R=5.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(g, name=name, cube_radius=R)
    assert dataclasses.replace(g, name="renamed", cube_radius=None).cube_radius is None


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


def test_hat_g_reads_g0_of_a_replaced_g():
    # g(0) is read from g, so the copy dataclasses.replace(nl, g=h) that the
    # class documents takes the secant quotient of h, not of the old g
    g = wc.builtin("loglimit", a=0.5)
    h = dataclasses.replace(g, g=lambda r: g.g(r) + 0.5)
    r = np.array([-2.0, 0.5, 3.0])
    assert np.array_equal(h.hat_g(r), (h.g(r) - 1.0) / r)


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


# the builtins that declare [g']_s, on which the line search rules scan
# points out; cubic_sat at two radii
SEMINORM_BUILTINS = [("zero", {}), ("linear", {"b": -0.7}), ("lipschitz_sat", {"kappa": 5.0}),
                     ("cubic_sat", {"R": 5.0}), ("cubic_sat", {"R": 50.0})]
SEMINORM_IDS = ["zero", "linear", "lipschitz_sat", "cubic_sat_R5", "cubic_sat_R50"]


def longdouble_g(name, params):
    """g and g' of a builtin from its formula, in np.longdouble, with the
    exact constants (3/5, 6/5, 13/10) where the builtin rounds them."""
    L = np.longdouble
    if name == "zero":
        return (lambda x: 0 * x), (lambda x: 0 * x)
    if name == "linear":
        b = L(params["b"])
        return (lambda x: b * x), (lambda x: b + 0 * x)
    if name == "lipschitz_sat":
        k = L(params["kappa"])
        return (lambda x: k * np.tanh(x)), (lambda x: k / np.cosh(x) ** 2)
    R = L(params["R"])

    def t_of(x):
        return np.clip((np.abs(x) - R) / (R / 5), 0, 1)

    def g(x):
        t = t_of(x)
        blend = R ** 3 + 3 * R ** 3 / 5 * (t - t ** 3 + t ** 4 / 2)
        out = np.where(np.abs(x) <= R, x ** 3, np.sign(x) * blend)
        return np.where(np.abs(x) >= 6 * R / 5, np.sign(x) * 13 * R ** 3 / 10, out)

    def dg(x):
        t = t_of(x)
        out = np.where(np.abs(x) <= R, 3 * x * x, 3 * R * R * (1 - t * t * (3 - 2 * t)))
        return np.where(np.abs(x) >= 6 * R / 5, 0 * x, out)
    return g, dg


@pytest.mark.parametrize("name,params", SEMINORM_BUILTINS, ids=SEMINORM_IDS)
def test_numpy_g_within_the_assumed_tolerance(name, params):
    # the line search's rounding allowance assumes |g^ - g| <= tau |g| and
    # |g'^ - g'| <= tau (|g'| + [g']_s |x|^s) for numpy's g^ and g'^
    g = wc.builtin(name, **params)
    g_ld, dg_ld = longdouble_g(name, params)
    tau = EVAL_TOLERANCE
    rng = np.random.default_rng(3)
    n = 20000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 3, n)
    if "R" in params:      # dense across the blend zone R..1.2R and its edges
        R = params["R"]
        x = np.concatenate([x, rng.choice([-1.0, 1.0], n) * rng.uniform(0.99 * R, 1.21 * R, n)])
    xl = x.astype(np.longdouble)
    ref, dref = g_ld(xl), dg_ld(xl)
    assert np.all(np.abs(g.g(x) - ref) <= tau * np.abs(ref))
    bound = tau * (np.abs(dref) + g.seminorm * np.abs(xl) ** g.s)
    assert np.all(np.abs(g.dg(x) - dref) <= bound)


@pytest.mark.parametrize("name,params", SEMINORM_BUILTINS, ids=SEMINORM_IDS)
def test_taylor_remainder_within_the_declared_seminorm(name, params):
    # |g(y - h) - g(y) + h g'(y)| <= [g']_s / (1 + s) |h|^(1+s), h = lam Y,
    # the bound the line search rules scan points out with; the seminorm
    # test above only bounds [g']_s from below
    g = wc.builtin(name, **params)
    R = params.get("R", 2.0)
    rng = np.random.default_rng(11)
    n = 200000
    y = rng.uniform(-1.5 * R, 1.5 * R, n)          # across cubic_sat's blend zone
    Y = rng.choice([-1.0, 1.0], n) * R * 10.0 ** rng.uniform(-4, 0, n)
    w = y - rng.uniform(0.0, 2.0, n) * Y
    L = np.longdouble
    h = y.astype(L) - w.astype(L)                  # the step to the rounded point
    gw, gy, dgy = (v.astype(L) for v in (g.g(w), g.g(y), g.dg(y)))
    remainder = np.abs(gw - gy + h * dgy)
    bound = g.seminorm / (1 + g.s) * np.abs(h) ** (1 + g.s)
    # numpy's error on the three values (the tolerance tested above)
    rounding = EVAL_TOLERANCE * (np.abs(gw) + np.abs(gy) + np.abs(h) * (
        np.abs(dgy) + g.seminorm * np.abs(y) ** g.s)) * 1.01
    assert np.all(remainder <= bound + rounding)
    if g.seminorm > 0:
        # the bound is tight: a seminorm declared a few percent too small fails
        clear = bound > 1e6 * rounding
        assert np.max(remainder[clear] / bound[clear]) > 0.95
