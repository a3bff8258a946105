"""Independent reference values for the benchmark's output checks.

Everything here is computed from ``scipy.stats.norm`` (quantiles),
``scipy.integrate.quad`` (adaptive integration with the integrands'
known breakpoints) and numpy linear algebra.  This module never
imports smoothci: it is the yardstick the program's outputs are
measured against, so it shares no code with them.

The integrands evaluate the normal density and CDF through the
standard library (``math.exp``, ``math.erfc``), which is what
``norm.pdf`` and ``norm.cdf`` compute, without their per-call
overhead on scalars; ``test_benchmark.py::test_reference_normal_matches_scipy``
checks the two agree.

Notation follows the package: a standardized restriction statistic
h = gamma + Z1 with Z1 ~ N(0, 1), a standardized estimate of the
parameter of interest rho * Z1 + s * Z2 with s = sqrt(1 - rho^2), and a
pretest cutoff d.  Quantities are accurate to about 1e-12, well inside
the 1e-9 the checks demand.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Integration range in standard units; the normal mass beyond it is
#: 2 * Phi(-12), about 3.6e-33.
TAIL = 12.0
_QUAD = dict(epsabs=1e-14, epsrel=1e-13, limit=500)
#: Spacing of the scan for sign changes that locate integrand switches.
_SCAN_STEP = 0.25

SD, SD_DELTA, PMS, FULL_MODEL = "sd", "sd_delta", "pms", "full_model"


def pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def prob(lo: float, hi: float, mu: float, sd: float) -> float:
    """P(lo <= N(mu, sd^2) <= hi), taken from the nearer tail."""
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    if a > 0.0:
        return cdf(-a) - cdf(-b)
    return cdf(b) - cdf(a)


def z_two_sided(alpha: float) -> float:
    """Upper alpha/2 normal quantile."""
    return float(norm.isf(0.5 * alpha))


def cutoff(pretest_size: float) -> float:
    return z_two_sided(pretest_size)


def k(g: float, d: float) -> float:
    """E[Z 1{|Z| <= d}] for Z ~ N(g, 1)."""
    return pdf(d + g) - pdf(d - g) + g * (cdf(d - g) - cdf(-d - g))


def q(g: float, d: float) -> float:
    """Derivative of k in g."""
    return cdf(d - g) - cdf(-d - g) - d * (pdf(d + g) + pdf(d - g))


def r_delta(g: float, rho: float, d: float) -> float:
    qv = q(g, d)
    return math.sqrt(1.0 - 2.0 * rho * rho * qv + rho * rho * qv * qv)


def expect(f, g: float, points=()) -> float:
    """E f(g + Z), Z ~ N(0, 1), by adaptive quadrature on [-TAIL, TAIL]."""
    pts = sorted({float(p) for p in points if -TAIL < p < TAIL})
    val, _ = quad(lambda z: f(g + z) * pdf(z), -TAIL, TAIL, points=pts or None, **_QUAD)
    return val


def kernel_moments(g: float, d: float) -> tuple[float, float, float]:
    """E k(h), E k(h) (h - g) and E k(h)^2 for h ~ N(g, 1)."""
    pts = (-d - g, d - g)
    mk = expect(lambda h: k(h, d), g, pts)
    cov = expect(lambda h: k(h, d) * (h - g), g, pts)
    ek2 = expect(lambda h: k(h, d) ** 2, g, pts)
    return mk, cov, ek2


def r(g: float, rho: float, d: float) -> float:
    """Exact sd factor of the smoothed estimator, from its moment integrals."""
    if rho == 0.0:
        return 1.0
    mk, cov, ek2 = kernel_moments(g, d)
    return math.sqrt(1.0 - 2.0 * rho * rho * cov + rho * rho * (ek2 - mk * mk))


def scale_function(rule: str, rho: float, d: float):
    """Half-width factor w(h) of a smoothed rule: r or r_delta."""
    if rule == SD:
        return lambda h: r(h, rho, d)
    if rule == SD_DELTA:
        return lambda h: r_delta(h, rho, d)
    raise ValueError(f"no scale function for rule {rule!r}")


def _roots(fn, lo: float, hi: float) -> list[float]:
    """Sign changes of fn on a uniform scan of [lo, hi], bisected to 1e-12."""
    xs = np.arange(lo, hi + 0.5 * _SCAN_STEP, _SCAN_STEP)
    vals = [fn(x) for x in xs]
    out = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            out.append(float(a))
        elif fa * fb < 0.0:
            a, b = float(a), float(b)
            while b - a > 1e-12:
                m = 0.5 * (a + b)
                fm = fn(m)
                if fm == 0.0:
                    a = b = m
                elif (fm < 0.0) == (fa < 0.0):
                    a, fa = m, fm
                else:
                    b = m
            out.append(0.5 * (a + b))
    return out


def coverage(rule: str, gamma: float, rho: float, d: float, alpha: float) -> float:
    """Exact coverage probability of one interval rule.

    Conditioning on Z1 leaves a normal interval probability in Z2; the
    remaining integral over Z1 = zeta is split where the conditional
    probability jumps (the pretest cutoffs, for PMS) or switches from
    near 0 to near 1 (where an end of the conditional interval crosses
    its mean).
    """
    za = z_two_sided(alpha)
    if rule == FULL_MODEL or rho == 0.0:
        return 1.0 - alpha
    s = math.sqrt(1.0 - rho * rho)
    if rule == PMS:
        narrow = za * s

        def cond(zeta):
            h = gamma + zeta
            if abs(h) <= d:
                return prob(rho * h - narrow, rho * h + narrow, rho * zeta, s)
            return prob(-za, za, rho * zeta, s)

        pts = (-d - gamma, d - gamma, za / rho, -za / rho)
    else:
        w = scale_function(rule, rho, d)

        def ends(zeta):
            h = gamma + zeta
            c, hw = rho * k(h, d), za * w(h)
            return c - hw, c + hw

        def cond(zeta):
            lo, hi = ends(zeta)
            return prob(lo, hi, rho * zeta, s)

        pts = _roots(lambda z: ends(z)[0] - rho * z, -TAIL, TAIL)
        pts += _roots(lambda z: ends(z)[1] - rho * z, -TAIL, TAIL)
    return expect(lambda h: cond(h - gamma), gamma, pts)


def scaled_length(rule: str, gamma: float, rho: float, d: float, alpha: float,
                  c_min: float) -> float:
    """Expected length over that of the flat-rate interval with coverage c_min."""
    w = scale_function(rule, rho, d)
    ratio = z_two_sided(alpha) / float(norm.isf(0.5 * (1.0 - c_min)))
    return ratio * expect(w, gamma, (-d - gamma, d - gamma))


def _center_offset(rule: str, rho: float, d: float):
    """Z1-dependent part of the standardized interval center."""
    if rule in (SD, SD_DELTA):
        return lambda z1, h: rho * z1 - rho * k(h, d)
    if rule == PMS:
        return lambda z1, h: rho * z1 - (rho * h if abs(h) <= d else 0.0)
    return lambda z1, h: rho * z1


def resample_variance(h: float, rho: float, d: float) -> float:
    """Variance of one parametric resample of the select-then-estimate rule.

    Given the observed statistic h, a resample is
    theta + rho Z + s Z' - rho (h + Z) 1{|h + Z| <= d}; this is its
    variance over (Z, Z').
    """
    a, b = -d - h, d - h
    p_in = cdf(b) - cdf(a)
    ez_in = pdf(a) - pdf(b)
    ez2_in = p_in + a * pdf(a) - b * pdf(b)
    mean = -ez_in - h * p_in
    second = (1.0 - ez2_in) + h * h * p_in
    return 1.0 - rho * rho + rho * rho * (second - mean * mean)


def oracle_summary(rule: str, gamma: float, rho: float, d: float, alpha: float,
                   bootstrap_B: int = 0) -> dict:
    """Population values of what oracle.run estimates, with their spreads.

    Returns mean, sd, coverage and mean length of the standardized
    interval, the per-replication standard deviations the Monte Carlo
    error scales with, and for bootstrap_B > 0 the O(1/B) allowance on
    coverage (the sd already includes the resampling variance exactly).
    """
    s2 = 1.0 - rho * rho
    za = z_two_sided(alpha)
    pts = (-d - gamma, d - gamma)
    off = _center_offset(rule, rho, d)
    mean = expect(lambda h: off(h - gamma, h), gamma, pts)
    ea2 = expect(lambda h: (off(h - gamma, h) - mean) ** 2, gamma, pts)
    ea4 = expect(lambda h: (off(h - gamma, h) - mean) ** 4, gamma, pts)
    extra = 0.0
    cov_allowance = 0.0
    if bootstrap_B > 0:
        extra = expect(lambda h: resample_variance(h, rho, d), gamma, pts) / bootstrap_B
        cov_allowance = 0.25 * extra / s2
    noise = s2 + extra
    var = ea2 + noise
    m4 = ea4 + 6.0 * noise * ea2 + 3.0 * noise * noise
    if rule in (SD, SD_DELTA):
        w = scale_function(rule, rho, d)
        ew = expect(w, gamma, pts)
        ew2 = expect(lambda h: w(h) ** 2, gamma, pts)
        mean_len, var_len = 2.0 * za * ew, 4.0 * za * za * max(ew2 - ew * ew, 0.0)
    elif rule == PMS:
        p_in = cdf(d - gamma) - cdf(-d - gamma)
        short = math.sqrt(s2)
        mean_len = 2.0 * za * (p_in * short + 1.0 - p_in)
        var_len = 4.0 * za * za * (1.0 - short) ** 2 * p_in * (1.0 - p_in)
    else:
        mean_len, var_len = 2.0 * za, 0.0
    cov = coverage(rule, gamma, rho, d, alpha)
    return {
        "mean_estimate": mean,
        "sd_estimate": math.sqrt(var),
        "empirical_coverage": cov,
        "mean_length": mean_len,
        "spread": {
            "mean_estimate": math.sqrt(var),
            "sd_estimate": math.sqrt(max(m4 - var * var, 0.0) / (4.0 * var)),
            "empirical_coverage": math.sqrt(cov * (1.0 - cov)),
            "mean_length": math.sqrt(var_len),
        },
        "allowance": {"empirical_coverage": cov_allowance},
    }


def fit_summary(X: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray,
                sigma: float) -> dict:
    """Least-squares summary from the normal equations."""
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    inv = np.linalg.inv(xtx)
    v_theta = float(a @ inv @ a)
    v_tau = float(b @ inv @ b)
    rho = float(a @ inv @ b) / math.sqrt(v_theta * v_tau)
    resid = y - X @ beta
    n, p = X.shape
    rss = float(resid @ resid)
    return {
        "theta_hat": float(a @ beta),
        "gamma_hat": float(b @ beta) / (sigma * math.sqrt(v_tau)),
        "sigma": sigma,
        "v_theta": v_theta,
        "v_tau": v_tau,
        "rho": rho,
        "rss": rss,
        "dof": n - p,
        "scaled_ratio": rss / (sigma * sigma * (n - p)),
    }


def intervals(summary: dict, d: float, alpha: float) -> dict:
    """The four realized intervals as (lower, upper) on the data scale."""
    za = z_two_sided(alpha)
    th, g, rho = summary["theta_hat"], summary["gamma_hat"], summary["rho"]
    scale = summary["sigma"] * math.sqrt(summary["v_theta"])
    smoothed = th - rho * scale * k(g, d)
    if abs(g) <= d:
        pms = (th - rho * scale * g, za * scale * math.sqrt(1.0 - rho * rho))
    else:
        pms = (th, za * scale)
    out = {
        SD: (smoothed, za * scale * r(g, rho, d)),
        SD_DELTA: (smoothed, za * scale * r_delta(g, rho, d)),
        PMS: pms,
        FULL_MODEL: (th, za * scale),
    }
    return {rule: (c - hw, c + hw) for rule, (c, hw) in out.items()}
