"""Gaussian primitives and the fixed quadrature engine.

Everything downstream reduces to a handful of operations: the standard
normal density, its CDF, its quantile, interval probabilities of a
normal variate, orthant probabilities of a correlated normal pair, and
integrals of smooth functions against a shifted standard normal
density.  The quadrature engine is a composite Gauss-Legendre rule with
equal panels, built afresh on each call; the coverage and length
integrals lay its one-panel rule end to end on a lattice in the
restriction statistic, and build it once per prepared curve (see
intervals).
With the default half width of 8 the neglected tail mass of a window
is at most 2*Phi(-8), about 1.2e-15, far below every tolerance used in
this package.  _orthant gives the bivariate orthant probabilities
through Owen's T function, for the closed-form PMS coverage, and
_bvn_diagonal its diagonal, for the kernel moments.  The quantile is
scipy's ndtri; _z_alpha and _z_level take from it the two critical
values the intervals and lengths use, each in one place.

The public functions check their input and then call a private core
that holds the formula: phi calls _density, Phi _upper_tail and
Phi_interval _interval.  The coverage integrals call the cores
directly on arguments they build finite and ordered, and check what
could go wrong only where an evaluated span of the lattice holds a bad
node (see intervals), so each formula has one definition and a clean
span costs no check per gamma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc, ndtri, owens_t

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI

#: Truncation half width of the integration support.
HALF_WIDTH = 8.0
#: Number of uniform panels the support is divided into.
DEFAULT_PANELS = 40
#: Gauss-Legendre nodes per panel.
DEFAULT_ORDER = 10


def phi(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal density, elementwise on arrays.

    Rejects non-finite input: the density is only ever needed at
    quadrature nodes and standardized estimates, all of which are
    finite by construction, so an infinity here is a caller bug.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi: input must be finite")
    out = _density(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _density(x: np.ndarray) -> np.ndarray:
    """phi's formula without its input check, for the integrals' nodes,
    which are finite by construction."""
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def Phi(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function.

    Computed as erfc(-x / sqrt(2)) / 2, which keeps full relative
    precision in the lower tail.  Infinite endpoints are allowed (they
    arise naturally as degenerate interval ends); NaN is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("Phi: NaN input")
    out = _upper_tail(-arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def z_quantile(a: float) -> float:
    """Inverse of Phi on (0, 1), from scipy's ndtri (Cephes).

    The computation is canonicalized to the lower half, so the exact
    antisymmetry z_quantile(1 - a) == -z_quantile(a) holds whenever
    both probabilities are representable, and z_quantile(0.5) is
    exactly 0.0.  Against a 60-digit reference ndtri is within 3 ulp
    on log-uniform probabilities from 1e-323 to 0.5, including p next
    to 1/2, where the quantile goes to 0, and the far tail.
    """
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError(f"z_quantile: probability must be in (0, 1), got {a}")
    if a == 0.5:
        return 0.0
    if a < 0.5:
        return float(ndtri(a))
    return -float(ndtri(1.0 - a))


def _z_alpha(alpha: float) -> float:
    """z_quantile(1 - alpha/2), the critical value of a 1 - alpha interval."""
    return z_quantile(1.0 - 0.5 * alpha)


def _z_level(level: float) -> float:
    """z_quantile((1 + level)/2), the critical value of a level interval."""
    return z_quantile(0.5 * (1.0 + level))


def Phi_interval(
    l: float | np.ndarray,
    u: float | np.ndarray,
    mu: float | np.ndarray,
    v: float | np.ndarray,
) -> float | np.ndarray:
    """Probability that a N(mu, v) variate falls in [l, u].

    The standardized endpoints are put in a canonical position before
    any CDF is evaluated: whenever the interval sits mostly above the
    mean it is reflected to the mirror-image interval below the mean,
    which has the same probability.  Both CDF values are then lower
    tail erfc evaluations and their difference loses nothing to
    cancellation.  Because mirrored inputs canonicalize to the same
    endpoint pair, the reflection identity

        Phi_interval(l, u, mu, v) == Phi_interval(-u, -l, -mu, v)

    holds bit for bit, not merely to rounding.  That exactness is what
    makes every coverage quantity built on top of this function an
    exactly even function of its correlation argument.  The checks are
    made here; the formula is _interval.
    """
    l_arr = np.asarray(l, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    mu_arr = np.asarray(mu, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if np.any(np.isnan(l_arr)) or np.any(np.isnan(u_arr)):
        raise ValueError("Phi_interval: NaN endpoint")
    if not np.all(np.isfinite(mu_arr)):
        raise ValueError("Phi_interval: mean must be finite")
    if not np.all(np.isfinite(v_arr)) or np.any(v_arr <= 0.0):
        raise ValueError("Phi_interval: variance must be finite and positive")
    if np.any(l_arr > u_arr):
        raise ValueError("Phi_interval: lower endpoint exceeds upper endpoint")
    p = _interval(l_arr, u_arr, mu_arr, np.sqrt(v_arr))
    scalar = all(np.isscalar(t) or np.asarray(t).ndim == 0 for t in (l, u, mu, v))
    return float(p) if scalar else p


def _interval(l, u, mu, s):
    """Phi_interval's formula without its input checks, for a standard
    deviation s: l <= u with no NaN, mu finite, s positive.

    With a and b the standardized ends, the canonical interval is
    [a, b] when a + b <= 0 and its mirror image [-b, -a] otherwise.
    The CDF values are taken at its negated ends, which are
    max(a, -b) and max(b, -a) either way, so no branch is needed and
    no inf - inf is formed for infinite ends.
    """
    a = (l - mu) / s
    b = (u - mu) / s
    p = 0.5 * (erfc(np.maximum(a, -b) / _SQRT2) - erfc(np.maximum(b, -a) / _SQRT2))
    return np.minimum(np.maximum(p, 0.0), 1.0)


class QuadratureRule(NamedTuple):
    """A fixed quadrature rule: nodes, plain Lebesgue weights, support.

    Weights carry no density factor; integrating f against the normal
    density means summing weights * phi(nodes) * f(nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray
    support: tuple[float, float]


def quadrature_rule(
    *,
    panels: int = DEFAULT_PANELS,
    order: int = DEFAULT_ORDER,
    half_width: float = HALF_WIDTH,
) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-half_width, half_width].

    The support is cut into ``panels`` equal panels with ``order``
    nodes each.  Callers translate the rule to wherever they need it.
    """
    if panels < 1 or order < 2:
        raise ValueError("quadrature_rule: need panels >= 1 and order >= 2")
    if not half_width > 0.0:
        raise ValueError("quadrature_rule: half_width must be positive")
    base_x, base_w = leggauss(order)
    edges = np.linspace(-half_width, half_width, panels + 1)
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    return QuadratureRule(nodes=(mid + half * base_x).ravel(),
                          weights=(half * base_w).ravel(),
                          support=(-half_width, half_width))


def _upper_tail(x: np.ndarray) -> np.ndarray:
    """Q(x) = 1 - Phi(x), without Phi's input checks."""
    return 0.5 * erfc(x / _SQRT2)


def _wedge(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q(x)/2 - T(x, y/x) for x, y >= 0 not both 0, and Q(x); T is Owen's
    function.

    That is the mass of a standard normal pair beyond x in its first
    coordinate and beyond the ray through (x, y) in the second.  For
    y > x Owen's identity
        T(x, a) + T(ax, 1/a) = Q(x)/2 + Q(ax)/2 - Q(x) Q(ax)
    rewrites it as T(y, x/y) - Q(y) (1/2 - Q(x)).  Either way the
    terms are no larger than Q(min(x, y)), not O(1): a wedge far in
    the tail keeps most of its relative accuracy, and one beyond the
    double range comes out 0.  Q(x) is returned for the caller's other
    wedge side, so it is taken once.
    """
    # Owen's T at (max(x, y), min(x, y) / max(x, y)): (y, x/y) when
    # y > x, else (x, y/x).  0/0 only at the origin.
    top = np.maximum(x, y)
    with np.errstate(invalid="ignore"):
        t = owens_t(top, np.minimum(x, y) / top)
    qx, qy = _upper_tail(np.array([x, y]))
    return np.where(y > x, t - qy * (0.5 - qx), 0.5 * qx - t), qx


def _bvn_diagonal(h: np.ndarray, rho: float) -> np.ndarray:
    """_orthant on its diagonal, P(X > h, Y <= h) = 2 T(h, (1 - rho)/s)."""
    return 2.0 * owens_t(h, (1.0 - rho) / math.sqrt((1.0 - rho) * (1.0 + rho)))


def _orthant(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """P(X > h, Y <= k) for standard normal X, Y with correlation
    |rho| < 1, at the corners of h and k, finite arrays of one shape;
    unchecked, since its callers build their corners finite.

    Every rectangle probability of the pair is a signed sum of these.
    Off the diagonal the corner (h, k) is split along the ray from the
    origin into two wedges, one per coordinate, each from Owen's T
    (Owen 1956; scipy's owens_t implements Patefield and Tandy 2000).
    Wedges far in the tail are evaluated without O(1) cancellation
    (see _wedge), so a probability below the double range comes out
    exactly 0.  On the diagonal h == k the probability is
    2 T(h, (1 - rho)/s) with s = sqrt(1 - rho^2), which also holds at
    the origin, where the split is undefined; there it is
    1/4 - asin(rho)/(2 pi).  That formula is evaluated only at the
    corners with h == k, where it replaces the split.
    """
    on_diagonal = h == k
    if on_diagonal.all():
        return _bvn_diagonal(h, rho)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    # Signed distance of the corner from the ray, seen from each
    # axis: the wedge on an axis is Q/2 -+ T by its sign.
    t = np.array([k - rho * h, rho * k - h]) / s
    w, qx = _wedge(np.abs(np.array([h, k])), np.abs(t))
    side_h, side_k = np.where(t <= 0.0, w, qx - w)
    sign_h = np.where(h < 0.0, -1.0, 1.0)
    sign_k = np.where(k < 0.0, -1.0, 1.0)
    off = ((h < 0.0) & (k >= 0.0)) + sign_h * side_h - sign_k * side_k
    out = np.minimum(np.maximum(off, 0.0), 1.0)
    if on_diagonal.any():
        out[on_diagonal] = _bvn_diagonal(h[on_diagonal], rho)
    return out
