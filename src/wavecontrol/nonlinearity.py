"""Nonlinearity families g with derivatives, Holder data and growth checks.

Each builtin carries its derivative, a Holder exponent s for g', the
seminorm [g']_s when a closed form exists, and growth parameters
(alpha, beta) such that |g'(r)| <= alpha + beta * ln^(1/2)(1 + |r|)
when such a bound is known.  By convention [g']_0 = 2 sup|g'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Nonlinearity:
    name: str
    g: callable                 # vectorized r -> g(r)
    dg: callable                # vectorized r -> g'(r)
    s: float                    # Holder exponent of g'
    seminorm: float | None      # [g']_s, None when unknown
    alpha: float | None         # growth bound intercept, None when unknown
    beta: float | None          # growth bound log coefficient
    g0: float = 0.0             # cached g(0)

    def hat_g(self, r):
        """Secant quotient (g(r) - g(0)) / r, with g'(0) at the origin.

        The exact quotient is used for |r| >= 1e-8; below that the
        quotient is numerically 0/0-prone and the limiting value g'(0)
        is returned (the neglected term is O(r)).
        """
        r = np.asarray(r, dtype=float)
        big = np.abs(r) >= 1e-8
        safe = np.where(big, r, 1.0)
        quotient = (self.g(safe) - self.g0) / safe
        return np.where(big, quotient, self.dg(0.0))


def _check_derivative_consistency(g, dg, name):
    # away from the origin, where g' of every builtin is classical
    r = np.concatenate([-np.geomspace(10.0, 0.01, 60), np.geomspace(0.01, 10.0, 60)])
    h = 1e-6 * np.maximum(1.0, np.abs(r))
    fd = (g(r + h) - g(r - h)) / (2 * h)
    exact = dg(r)
    tol = np.maximum(1e-6, 1e-4 * np.abs(exact))
    bad = np.abs(fd - exact) > tol
    if np.any(bad):
        raise ConfigError(f"nonlinearity {name!r}: g and g' are inconsistent "
                          f"near r={r[bad][0]:.3g}")


def builtin(name: str, **params) -> Nonlinearity:
    """Construct a builtin nonlinearity by name.

    zero            g = 0
    linear          g = b r
    lipschitz_sat   g = kappa tanh(r)
    loglimit        g = a + b r + c r ln^(1/2)(1 + |r|)
    cubic_sat       g = r^3, smoothly truncated outside |r| <= R
    """
    if name == "zero":
        nl = Nonlinearity("zero",
                          lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                          lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                          s=1.0, seminorm=0.0, alpha=0.0, beta=0.0)
    elif name == "linear":
        b = float(params.pop("b", 1.0))
        nl = Nonlinearity("linear", lambda r: b * np.asarray(r, dtype=float),
                          lambda r: np.full_like(np.asarray(r, dtype=float), b),
                          s=1.0, seminorm=0.0, alpha=abs(b), beta=0.0)
    elif name == "lipschitz_sat":
        kappa = float(params.pop("kappa", 1.0))
        # sup |g''| = kappa * max 2|t|(1-t^2) over t = tanh in [-1,1] = 4k/(3 sqrt 3)
        nl = Nonlinearity("lipschitz_sat",
                          lambda r: kappa * np.tanh(r),
                          _lipschitz_sat_dg(kappa),
                          s=1.0, seminorm=4 * abs(kappa) / (3 * math.sqrt(3)),
                          alpha=abs(kappa), beta=0.0)
    elif name == "loglimit":
        a = float(params.pop("a", 0.0))
        b = float(params.pop("b", 0.0))
        c = float(params.pop("c", 1.0))
        nl = Nonlinearity("loglimit", _loglimit_g(a, b, c), _loglimit_dg(b, c),
                          # g' has a sqrt(|r|) cusp at 0: Holder exponent 1/2,
                          # no closed-form seminorm
                          s=0.5, seminorm=None,
                          # |g'| <= |b| + |c| (ln^(1/2)(1+|r|) + 0.32), margin 0.5
                          alpha=abs(b) + 0.5 * abs(c), beta=abs(c), g0=a)
    elif name == "cubic_sat":
        R = float(params.pop("R", 50.0))
        if R <= 0:
            raise ConfigError("cubic_sat radius R must be positive")
        nl = Nonlinearity("cubic_sat", _cubic_sat_g(R), _cubic_sat_dg(R),
                          # blend slope peak 3R^2 * (3/2) / (0.2R) = 22.5 R
                          s=1.0, seminorm=22.5 * R, alpha=3 * R * R, beta=0.0)
    else:
        raise ConfigError(f"unknown nonlinearity {name!r}")
    if params:
        raise ConfigError(f"unexpected parameters for {name!r}: {sorted(params)}")
    _check_derivative_consistency(nl.g, nl.dg, name)
    return nl


def _lipschitz_sat_dg(kappa):
    def dg(r):
        # cosh overflows to inf for |r| > ~710, and kappa / inf = 0 is the limit
        with np.errstate(over="ignore"):
            return kappa / np.cosh(np.asarray(r, dtype=float)) ** 2
    return dg


def _loglimit_g(a, b, c):
    def g(r):
        r = np.asarray(r, dtype=float)
        return a + b * r + c * r * np.sqrt(np.log1p(np.abs(r)))
    return g


def _loglimit_dg(b, c):
    def dg(r):
        r = np.asarray(r, dtype=float)
        ar = np.abs(r)
        tiny = ar < 1e-6
        safe = np.where(tiny, 1.0, ar)
        u = np.sqrt(np.log1p(safe))
        exact = u + safe / (2 * (1 + safe) * u)
        # series at the origin: (3/2) sqrt|r| (1 - 5|r|/12 + O(r^2))
        series = 1.5 * np.sqrt(ar) * (1 - 5 * ar / 12)
        return b + c * np.where(tiny, series, exact)
    return dg


def _smoothstep(t):
    return t * t * (3 - 2 * t)


def _cubic_sat_g(R):
    def g(r):
        r = np.asarray(r, dtype=float)
        ar = np.abs(r)
        sign = np.sign(r)
        t = np.clip((ar - R) / (0.2 * R), 0.0, 1.0)
        # integral of g' = 3R^2 (1 - smoothstep) over the blend zone
        blend = R**3 + 0.6 * R**3 * (t - t**3 + 0.5 * t**4)
        out = np.where(ar <= R, r**3, sign * blend)
        return np.where(ar >= 1.2 * R, sign * 1.3 * R**3, out)
    return g


def _cubic_sat_dg(R):
    def dg(r):
        r = np.asarray(r, dtype=float)
        ar = np.abs(r)
        t = np.clip((ar - R) / (0.2 * R), 0.0, 1.0)
        out = np.where(ar <= R, 3 * r * r, 3 * R * R * (1 - _smoothstep(t)))
        return np.where(ar >= 1.2 * R, 0.0, out)
    return dg


def holder_seminorm_sample(g: Nonlinearity, s: float, R: float = 10.0,
                           n_samples: int = 1000, seed: int = 0) -> float:
    """Certified lower bound of [g']_s by sampled Holder quotients.

    Pairs are stratified: near-diagonal offsets at several scales catch
    the local modulus, random far pairs catch the global one.
    """
    if n_samples < 2:
        raise ConfigError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    base = np.concatenate([np.linspace(-R, R, n_samples // 2),
                           rng.uniform(-R, R, n_samples // 2)])
    best = 0.0
    for delta in (1e-7 * R, 1e-5 * R, 1e-3 * R, 1e-1 * R):
        a = base
        b = np.clip(base + delta, -R, R)
        keep = np.abs(b - a) > 0
        q = np.abs(g.dg(a[keep]) - g.dg(b[keep])) / np.abs(b[keep] - a[keep]) ** s
        if q.size:
            best = max(best, float(np.max(q)))
    far_a = rng.uniform(-R, R, n_samples)
    far_b = rng.uniform(-R, R, n_samples)
    keep = np.abs(far_b - far_a) > 1e-12
    q = np.abs(g.dg(far_a[keep]) - g.dg(far_b[keep])) / np.abs(far_b[keep] - far_a[keep]) ** s
    if q.size:
        best = max(best, float(np.max(q)))
    return best


@dataclass(frozen=True)
class GrowthCheck:
    holds: bool
    witness: float | None = None


def check_growth_H2(g: Nonlinearity, alpha: float, beta: float,
                    R: float = 1e6, n: int = 20000) -> GrowthCheck:
    """Sample |g'(r)| <= alpha + beta ln^(1/2)(1 + |r|) on [-R, R].

    Samples are ordered by increasing |r|, so the witness is the
    smallest sampled magnitude at which the bound first fails.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError("alpha and beta must be nonnegative")
    mag = np.concatenate([[0.0], np.geomspace(1e-8, R, n // 2)])
    r = np.empty(2 * mag.size)
    r[0::2] = mag
    r[1::2] = -mag
    bound = alpha + beta * np.sqrt(np.log1p(np.abs(r)))
    vals = np.abs(g.dg(r))
    bad = vals > bound + 1e-12 * (1 + bound)
    if np.any(bad):
        return GrowthCheck(False, float(r[np.argmax(bad)]))
    return GrowthCheck(True, None)


def beta_star(s: float, C: float) -> float:
    """Growth-coefficient threshold sqrt(s / (2 C (2s + 1)))."""
    if C <= 0:
        raise ConfigError("C must be positive")
    if not 0 <= s <= 1:
        raise ConfigError("s must lie in [0, 1]")
    return math.sqrt(s / (2 * C * (2 * s + 1)))
