"""Smoothing kernels and point estimators for the pretest problem.

Setting: a linear regression is fit twice, once unrestricted and once
with a single linear restriction imposed, and a preliminary two-sided
test with cutoff d decides which fit supplies the parameter estimate.
After standardizing by sigma and the relevant design constants, the
whole problem is governed by three scalars: the standardized estimate
of the parameter of interest, the standardized test statistic for the
restriction, and the correlation rho between the two.

Averaging the discontinuous select-then-estimate rule over resampled
data replaces the hard indicator with the smooth kernel k below; q is
its derivative and r gives the standard deviation of the smoothed
estimator on the standardized scale.  All kernel functions here are
closed form: k, q and r_delta in the normal density and CDF, r in
those and Owen's T function, which gives the probability of the
square a pair of correlated normal draws must land in (its diagonal
corners as gauss._bvn_diagonal takes them).

The four interval rules are defined here too, in one table, RULES:
each rule is one function of the standardized restriction statistic
alone that returns the pair (center shift, half-width factor).  The
pair comes from one evaluation, so a rule whose two parts share normal
CDF and density values takes them once: the delta-method rule's shift
rho * k and factor r_delta are built from the same four values.  The
realized intervals, the coverage and length integrals and the Monte
Carlo oracle all read their rule from that table, one call per block
of statistics; the point estimators below read the shifts alone.
Because the pair depends on the statistic alone, the integrals
evaluate it once per node of a lattice in the statistic that every
gamma shares, not once per (gamma, node).

The error estimator sigma is treated as known throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import owens_t

from .gauss import _SQRT2, Phi, _bvn_diagonal, _density, _upper_tail, _z_alpha

#: Largest correlation magnitude accepted by the smoothing analysis.
#: The coverage and length functionals degenerate as |rho| -> 1; the
#: linear-model front end cannot produce |rho| = 1 from a design of
#: full rank with distinct parameter and restriction directions, so
#: the cap costs nothing in practice.
RHO_MAX = 0.999

_PRETEST_CONSISTENCY_TOL = 1e-10
_SQRT_ARG_FLOOR = -1e-12


class ConsistencyError(ArithmeticError):
    """An internal identity failed beyond numerical slack.

    Raised when a quantity that is non-negative by construction (for
    example the variance under the square root in r) comes out more
    negative than accumulated rounding could explain.  It signals a
    bug, not bad user input.
    """


@dataclass(frozen=True)
class PretestSpec:
    """Cutoff d and size alpha1 of the preliminary two-sided test.

    The two fields are redundant by design: d is the (1 - alpha1/2)
    normal quantile.  Construct through ``from_size`` or
    ``from_cutoff`` and the pair is consistent by construction; direct
    construction double-checks the identity.
    """

    d: float
    alpha1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"PretestSpec: cutoff d must be positive and finite, got {self.d}")
        if not 0.0 < self.alpha1 < 1.0:
            raise ValueError(f"PretestSpec: test size must be in (0, 1), got {self.alpha1}")
        gap = abs(Phi(self.d) - (1.0 - 0.5 * self.alpha1))
        if gap > _PRETEST_CONSISTENCY_TOL:
            raise ValueError(
                "PretestSpec: cutoff and size disagree "
                f"(|Phi(d) - (1 - alpha1/2)| = {gap:.3e}); "
                "use from_size or from_cutoff"
            )

    @classmethod
    def from_size(cls, alpha1: float) -> "PretestSpec":
        """Spec for a test of size alpha1."""
        alpha1 = float(alpha1)
        if not 0.0 < alpha1 < 1.0:
            raise ValueError(f"PretestSpec.from_size: size must be in (0, 1), got {alpha1}")
        return cls(d=_z_alpha(alpha1), alpha1=alpha1)

    @classmethod
    def from_cutoff(cls, d: float) -> "PretestSpec":
        """Spec for a test that accepts the restriction when |statistic| <= d."""
        d = float(d)
        if not (math.isfinite(d) and d > 0.0):
            raise ValueError(f"PretestSpec.from_cutoff: cutoff must be positive, got {d}")
        return cls(d=d, alpha1=float(2.0 * Phi(-d)))


@dataclass(frozen=True)
class FittedModel:
    """Everything the interval constructions need from a fitted regression.

    theta_hat is the unrestricted estimate of the scalar parameter of
    interest, gamma_hat the standardized statistic testing the
    restriction, and rho the known correlation between the two
    estimators.  v_theta and v_tau are the design-determined variance
    factors (variances are sigma**2 times these).
    """

    theta_hat: float
    gamma_hat: float
    sigma: float
    v_theta: float
    v_tau: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("theta_hat", "gamma_hat", "sigma", "v_theta", "v_tau", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"FittedModel: {name} must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"FittedModel: sigma must be positive, got {self.sigma}")
        if self.v_theta <= 0.0 or self.v_tau <= 0.0:
            raise ValueError("FittedModel: variance factors must be positive")
        if abs(self.rho) > 1.0:
            raise ValueError(f"FittedModel: correlation must satisfy |rho| <= 1, got {self.rho}")


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not math.isfinite(rho):
        raise ValueError("correlation must be finite")
    if abs(rho) > RHO_MAX:
        raise ValueError(
            f"correlation magnitude {abs(rho)} exceeds the supported cap {RHO_MAX}"
        )
    return rho


def _finite(gamma, name: str) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name}: gamma must be finite")
    return g


def _like(gamma, g: np.ndarray, out):
    """A float for a scalar gamma, else the array."""
    return float(out) if np.isscalar(gamma) or g.ndim == 0 else out


def _k_q(g: np.ndarray, spec: PretestSpec):
    """k and q at finite g, from one evaluation of the four normal
    values they share: Phi(d - g), Phi(-d - g), phi(d + g), phi(d - g)."""
    d = spec.d
    pdf_plus, pdf_minus = _density(d + g), _density(d - g)
    mass = _upper_tail(g - d) - _upper_tail(d + g)
    return pdf_plus - pdf_minus + g * mass, mass - d * (pdf_plus + pdf_minus)


def k(gamma: float | np.ndarray, spec: PretestSpec) -> float | np.ndarray:
    """Smoothing kernel: mean of z * 1{|z| <= d} under z ~ N(gamma, 1).

    Closed form
        k(gamma) = phi(d + gamma) - phi(d - gamma)
                   + gamma * (Phi(d - gamma) - Phi(-d - gamma)).

    Odd in gamma, bounded, and decaying like a normal tail once
    |gamma| is a few units past d.
    """
    g = _finite(gamma, "k")
    return _like(gamma, g, _k_q(g, spec)[0])


def q(gamma: float | np.ndarray, spec: PretestSpec) -> float | np.ndarray:
    """Derivative of k:

        q(gamma) = Phi(d - gamma) - Phi(-d - gamma)
                   - d * (phi(d + gamma) + phi(d - gamma)).

    Even in gamma.  q(0) = 1 - alpha1 - 2 d phi(d) < 1, and for the
    usual cutoffs q stays in (-1, 1), which keeps the delta-method
    scale factor below real and positive.
    """
    g = _finite(gamma, "q")
    return _like(gamma, g, _k_q(g, spec)[1])


_SQRT3 = math.sqrt(3.0)


def _moments(g: np.ndarray, spec: PretestSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, covariance-with-identity, and variance of k(z), z ~ N(g, 1).

    Returns, for each entry of g,
        mean = E k(z),
        cov  = E k(z) (z - g),
        var  = E (k(z) - mean)^2,
    in closed form.  k(z) is the mean of Y 1{|Y| <= d} with Y ~ N(z, 1),
    so with two independent draws Y1, Y2 around the same z:

    * mean = E[W 1{|W| <= d}] with W ~ N(g, 2);
    * cov = E q(z) by Stein's lemma, the derivative of mean in g;
    * E k(z)^2 = E[Y1 Y2 1{|Y1|, |Y2| <= d}], where (Y1, Y2) is
      bivariate normal with mean g, variance 2 and correlation 1/2.

    On the standardized scale X = (Y - g) / sqrt(2) the square is
    [a, b]^2 with a = (-d - g) / sqrt(2), b = (d - g) / sqrt(2).  Its
    probability comes from Owen's T (Owen 1956): the diagonal corners
    Phi2(h, h) = Phi(h) - 2 T(h, 1/sqrt(3)), which the general formula
    gets wrong at h = 0, as gauss._bvn_diagonal takes them, and the
    general formula at (a, b).  The first and cross moments over the
    square come from the multivariate Stein identity
    E[X_i f(X)] = sum_j Sigma_ij E[d_j f(X)], whose boundary terms
    need the conditional law X2 | X1 = x ~ N(x/2, 3/4).  All normal
    CDF and density values are taken in one call each over stacked
    arguments: for a scalar gamma the cost is the number of numpy
    calls, not the arithmetic.
    """
    d = spec.d
    a = (-d - g) / _SQRT2
    b = (d - g) / _SQRT2
    # Standardized ends of [a, b] under X2 | X1 = x, at x = a and x = b.
    a_lo, b_hi = a / _SQRT3, b / _SQRT3
    a_hi = (2.0 * b - a) / _SQRT3
    b_lo = (2.0 * a - b) / _SQRT3
    args = np.array([a, b, a_lo, b_hi, a_hi, b_lo])
    cdf_a, cdf_b, cdf_a_lo, cdf_b_hi, cdf_a_hi, cdf_b_lo = _upper_tail(-args)
    pdf_a, pdf_b, pdf_a_lo, pdf_b_hi, pdf_a_hi, pdf_b_lo = _density(args)
    with np.errstate(divide="ignore"):
        # a_hi / a is +inf at a = 0 and b_lo / b is -inf at b = 0;
        # T(0, +-inf) = +-1/4 is the right limit there.
        slopes = np.array([a_hi / a, b_lo / b])
    ends = np.array([a, b])
    off_a, off_b = _bvn_diagonal(ends, 0.5)
    t_ab, t_ba = owens_t(ends, slopes)

    p1 = cdf_b - cdf_a
    mean = g * p1 + _SQRT2 * (pdf_a - pdf_b)
    cov = p1 - (d / _SQRT2) * (pdf_a + pdf_b)

    # P(X in [a, b]^2) from the bivariate CDF at the three corner types:
    # Phi2(h, h) = Phi(h) - P(X1 > h, X2 <= h) on the diagonal, Owen's
    # formula off it, which subtracts 1/2 when a < 0 <= b (a < b always).
    straddle = 0.5 * ((a < 0.0) & (b >= 0.0))
    corner_ab = 0.5 * (cdf_a + cdf_b) - t_ab - t_ba - straddle
    p2 = (cdf_b - off_b) - 2.0 * corner_ab + (cdf_a - off_a)
    # P(X2 in [a, b] | X1 = x) and E[X2 1{X2 in [a, b]} | X1 = x] at x = a, b.
    cond_a = cdf_a_hi - cdf_a_lo
    cond_b = cdf_b_hi - cdf_b_lo
    cmean_a = 0.5 * a * cond_a + 0.5 * _SQRT3 * (pdf_a_lo - pdf_a_hi)
    cmean_b = 0.5 * b * cond_b + 0.5 * _SQRT3 * (pdf_b_lo - pdf_b_hi)
    # E[X1 1_square] / (3/2) and E[X1 X2 1_square].
    edge = pdf_a * cond_a - pdf_b * cond_b
    cross = pdf_a * cmean_a - pdf_b * cmean_b + 0.5 * (
        p2 + a * pdf_a * cond_a - b * pdf_b * cond_b
    )
    # g (g p2 + ...) rather than g^2 p2: g^2 overflows for huge g.
    second = g * (g * p2 + 3.0 * _SQRT2 * edge) + 2.0 * cross
    return mean, cov, second - mean * mean


def r(gamma: float | np.ndarray, rho: float, spec: PretestSpec) -> float | np.ndarray:
    """Standard deviation factor of the smoothed estimator.

    r(gamma; rho)^2 = 1 - 2 rho^2 E[k(z)(z - gamma)]
                        + rho^2 Var[k(z)],  z ~ N(gamma, 1).

    The argument of the square root is non-negative by construction.
    Values in [-1e-12, 0) are treated as rounding and clamped to zero;
    anything more negative raises ConsistencyError.  At rho = 0 the
    result is exactly 1.0.  gamma may have any shape; scalar and array
    arguments take the same path, so r(g)[i] == r(g[i]) bit for bit.
    """
    rho = _check_rho(rho)
    g = _finite(gamma, "r")
    _, cov, var = _moments(g.ravel(), spec)
    arg = 1.0 - 2.0 * rho * rho * cov + rho * rho * var
    scale = _clamped_sqrt(arg, "r", "; the kernel moment identities are violated")
    return _like(gamma, g, scale.reshape(g.shape))


def r_delta(
    gamma: float | np.ndarray, rho: float, spec: PretestSpec
) -> float | np.ndarray:
    """Delta-method version of r, using the local slope q only:

        r_delta(gamma; rho)^2 = 1 - 2 rho^2 q(gamma) + rho^2 q(gamma)^2.

    Same clamping and consistency policy as r.  Since |q| < 1 for the
    cutoffs this package accepts, the argument is bounded away from
    zero and the clamp never fires in practice.  It is the factor of
    the SD_DELTA rule's terms.
    """
    return _sd_delta_terms(gamma, rho, spec)[1]


def _delta_factor(qv, rho: float):
    """r_delta from q, with the clamp and the consistency floor."""
    return _clamped_sqrt(1.0 - 2.0 * rho * rho * qv + rho * rho * qv * qv, "r_delta")


def _clamped_sqrt(arg, name: str, detail: str = ""):
    """sqrt(arg) for a squared scale: values in [_SQRT_ARG_FLOOR, 0) are
    rounding and clamped to zero, anything below raises ConsistencyError
    naming ``name``, with ``detail`` appended to the message."""
    if np.any(arg < _SQRT_ARG_FLOOR):
        worst = float(np.min(arg))
        raise ConsistencyError(
            f"{name}: squared scale came out {worst:.3e} < {_SQRT_ARG_FLOOR:.0e}{detail}"
        )
    return np.sqrt(np.maximum(arg, 0.0))


class IntervalRule(str, enum.Enum):
    """Which construction centers and scales the interval."""

    SD = "sd"
    SD_DELTA = "sd_delta"
    PMS = "pms"
    FULL_MODEL = "full_model"


@dataclass(frozen=True)
class RuleGeometry:
    """One interval rule on the standardized scale.

    With t the standardized unrestricted estimate and h the
    standardized restriction statistic, the rule's interval for the
    standardized parameter is

        t - shift(h)  +-  z * factor(h),

    so on the data's scale it is centered on
    theta_hat - sigma * sqrt(v_theta) * shift(gamma_hat) with half width
    z * sigma * sqrt(v_theta) * factor(gamma_hat).  ``terms`` takes
    (h, rho, spec) and returns the pair (shift, factor), both new arrays
    shaped like h (the oracle overwrites them), from one evaluation: a
    rule whose shift and factor share work does it once.  ``smoothed`` marks the rules whose shift
    is the infinite-resample average of the PMS shift, the one a finite
    resample average stands in for.
    """

    terms: Callable
    smoothed: bool = False


def _full_model_terms(h, rho: float, spec: PretestSpec):
    return np.zeros_like(h, dtype=float), np.ones_like(h, dtype=float)


def _pms_shift(h, rho: float, spec: PretestSpec):
    """The select-then-estimate shift alone, for resample averages."""
    return np.where(np.abs(h) <= spec.d, rho * h, 0.0)


def _pms_terms(h, rho: float, spec: PretestSpec):
    accept = np.abs(h) <= spec.d
    return np.where(accept, rho * h, 0.0), np.where(accept, math.sqrt(1.0 - rho * rho), 1.0)


def _sd_terms(h, rho: float, spec: PretestSpec):
    # k and r share no normal values: r is built from moments of k.
    return rho * k(h, spec), r(h, rho, spec)


def _sd_delta_terms(h, rho: float, spec: PretestSpec):
    """rho * k(h) and r_delta(h), from one evaluation of k and q."""
    rho = _check_rho(rho)
    g = _finite(h, "r_delta")
    kv, qv = _k_q(g, spec)
    return rho * _like(h, g, kv), _like(h, g, _delta_factor(qv, rho))


#: The four interval rules.  PMS keeps the restricted fit and its
#: narrow width while the pretest accepts (|h| <= d) and the
#: unrestricted one otherwise; SD and SD_DELTA center on the smoothed
#: estimate and scale by the exact or delta-method sd factor.
RULES = {
    IntervalRule.FULL_MODEL: RuleGeometry(terms=_full_model_terms),
    IntervalRule.PMS: RuleGeometry(terms=_pms_terms),
    IntervalRule.SD: RuleGeometry(terms=_sd_terms, smoothed=True),
    IntervalRule.SD_DELTA: RuleGeometry(terms=_sd_delta_terms, smoothed=True),
}


def _center(fit: FittedModel, shift) -> float:
    """Center on the data's scale of an interval with standardized shift ``shift``."""
    return fit.theta_hat - fit.sigma * math.sqrt(fit.v_theta) * float(shift)


def pms_estimate(fit: FittedModel, spec: PretestSpec) -> float:
    """Estimate after the preliminary test: the restricted-fit estimate
    of the parameter when the restriction is accepted (|gamma_hat| <= d),
    the unrestricted estimate otherwise.

    Discontinuous in gamma_hat at +-d with jump size
    |rho| * sigma * sqrt(v_theta) * d.
    """
    return _center(fit, _pms_shift(fit.gamma_hat, fit.rho, spec))


def smoothed_estimate(fit: FittedModel, spec: PretestSpec) -> float:
    """Infinite-resample limit of averaging pms_estimate over
    parametric resamples of the data:

        theta_hat - rho * sigma * sqrt(v_theta) * k(gamma_hat).

    Continuous (in fact smooth) in gamma_hat, unlike pms_estimate.
    """
    return _center(fit, fit.rho * k(fit.gamma_hat, spec))
