"""Gaussian primitives and the fixed quadrature engine.

Everything downstream reduces to four operations: the standard normal
density, its CDF, its quantile, and integrals of bounded functions
against a shifted standard normal density.  The quadrature engine is a
composite Gauss-Legendre rule on a fixed truncated support.  With the
default half width of 8 the neglected tail mass is 2*Phi(-8), about
1.2e-15, far below every tolerance used in this package.

All rules live in the standardized variable z = h - gamma, so a single
cached rule serves every shift.  Integrands with known discontinuities
pass their breakpoints in; panels are split there so no panel straddles
a jump and the composite rule keeps its full accuracy.  quadrature_rule
gives one rule; quadrature_rules gives one per row of a breakpoint
array, padded to a common width, built in one vectorized pass by the
same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI

#: Truncation half width of the integration support.
HALF_WIDTH = 8.0
#: Number of uniform panels the support is divided into.
DEFAULT_PANELS = 40
#: Gauss-Legendre nodes per panel.
DEFAULT_ORDER = 10
#: Most rules kept by the rule cache.  A rule with breakpoints is keyed
#: by where they fall, so a caller sweeping them over a grid asks for a
#: new one at every point; the bound keeps such a sweep from holding
#: them all.  The coverage integrals, whose breakpoints move with gamma,
#: build their rules in blocks with quadrature_rules, outside the cache.
_RULE_CACHE_SIZE = 256


def phi(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal density, elementwise on arrays.

    Rejects non-finite input: the density is only ever needed at
    quadrature nodes and standardized estimates, all of which are
    finite by construction, so an infinity here is a caller bug.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi: input must be finite")
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def Phi(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF via the complementary error function.

    Computed as erfc(-x / sqrt(2)) / 2, which keeps full relative
    precision in the lower tail.  Infinite endpoints are allowed (they
    arise naturally as degenerate interval ends); NaN is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("Phi: NaN input")
    out = 0.5 * erfc(-arr / _SQRT2)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# Rational initial estimate for the normal quantile (Acklam's
# coefficients), accurate to about 1.15e-9 everywhere; two Halley
# refinements against Phi then push the error to a few ulp.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_Q_TAIL_SPLIT = 0.02425


def _lower_quantile(p: float) -> float:
    """Quantile for p in (0, 0.5], returned as a value <= 0."""
    if p < _Q_TAIL_SPLIT:
        s = math.sqrt(-2.0 * math.log(p))
        x = ((((((_QC[0] * s + _QC[1]) * s + _QC[2]) * s + _QC[3]) * s
               + _QC[4]) * s + _QC[5])
             / ((((_QD[0] * s + _QD[1]) * s + _QD[2]) * s + _QD[3]) * s + 1.0))
        x = -abs(x)
    else:
        t = p - 0.5
        s = t * t
        x = ((((((_QA[0] * s + _QA[1]) * s + _QA[2]) * s + _QA[3]) * s
               + _QA[4]) * s + _QA[5]) * t
             / (((((_QB[0] * s + _QB[1]) * s + _QB[2]) * s + _QB[3]) * s
                 + _QB[4]) * s + 1.0))
    for _ in range(2):
        dens = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
        if dens < 1e-300:
            break
        err = 0.5 * math.erfc(-x / _SQRT2) - p
        u = err / dens
        x = x - u / (1.0 + 0.5 * x * u)
    return x


def z_quantile(a: float) -> float:
    """Inverse of Phi on (0, 1).

    The computation is canonicalized to the lower half, so the exact
    antisymmetry z_quantile(1 - a) == -z_quantile(a) holds whenever
    both probabilities are representable, and z_quantile(0.5) is
    exactly 0.0.
    """
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError(f"z_quantile: probability must be in (0, 1), got {a}")
    if a == 0.5:
        return 0.0
    if a < 0.5:
        return _lower_quantile(a)
    return -_lower_quantile(1.0 - a)


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
    exactly even function of its correlation argument.
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

    s = np.sqrt(v_arr)
    a = (l_arr - mu_arr) / s
    b = (u_arr - mu_arr) / s
    flip = a + b > 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    p = 0.5 * (erfc(-hi / _SQRT2) - erfc(-lo / _SQRT2))
    p = np.clip(p, 0.0, 1.0)
    scalar = all(np.isscalar(t) or np.asarray(t).ndim == 0 for t in (l, u, mu, v))
    return float(p) if scalar else p


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A fixed quadrature rule: nodes, plain Lebesgue weights, support.

    Weights carry no density factor; integrating f against the normal
    density means summing weights * phi(nodes) * f(nodes).  Instances
    are cached and shared, so the arrays are locked read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray
    support: tuple[float, float]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise ValueError("QuadratureRule: nodes and weights must be 1-d and equally long")
        if nodes.size < 2:
            raise ValueError("QuadratureRule: need at least two nodes")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("QuadratureRule: non-finite node or weight")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("QuadratureRule: nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("QuadratureRule: weights must be positive")
        lo, hi = self.support
        if not (lo < hi) or nodes[0] <= lo or nodes[-1] >= hi:
            raise ValueError("QuadratureRule: nodes must lie strictly inside the support")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support", (float(lo), float(hi)))


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return leggauss(order)


def _panel_edges(
    breakpoints: np.ndarray, panels: int, half_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges of one composite rule per row of breakpoints.

    Each row gets the uniform edges plus its own breakpoints, sorted.
    Breakpoints outside the open support are dropped.  A breakpoint
    within rounding distance of an edge already kept would create a
    degenerate sliver panel whose nodes collide in floating point, so
    it is merged away; the outer boundary always survives.  Rows can
    end up with different edge counts: each is padded on the right
    with copies of the upper boundary, and the counts are returned.
    """
    rows = breakpoints.shape[0]
    uniform = np.broadcast_to(np.linspace(-half_width, half_width, panels + 1), (rows, panels + 1))
    # Parked on the lower boundary, an outside breakpoint becomes an
    # exact duplicate there, which the merge drops.
    inside = (breakpoints > -half_width) & (breakpoints < half_width)
    edges = np.sort(
        np.concatenate([uniform, np.where(inside, breakpoints, -half_width)], axis=1), axis=1
    )
    tol = 1e-12 * half_width
    keep = np.ones(edges.shape, dtype=bool)
    keep[:, 1:] = np.diff(edges, axis=1) > tol
    # An edge far from its left neighbour is always kept.  One close to
    # it is kept only if it is far from the last edge kept so far, which
    # for a run of close edges is not the neighbour: settle those
    # columns left to right.
    for j in np.flatnonzero(~keep.all(axis=0)):
        last_kept = np.max(np.where(keep[:, :j], edges[:, :j], -np.inf), axis=1)
        keep[:, j] = edges[:, j] - last_kept > tol
    lost = ~keep[:, -1]
    if np.any(lost):
        # The upper boundary replaces the last edge kept before it.
        last = edges.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        keep[lost, last[lost]] = False
        keep[:, -1] = True
    counts = keep.sum(axis=1)
    edges = np.take_along_axis(edges, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    width = int(counts.max())
    edges = edges[:, :width]
    edges[np.arange(width) >= counts[:, None]] = half_width
    return edges, counts


def _nodes_and_weights(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on every panel of every row of edges."""
    base_x, base_w = _legendre(order)
    mid = 0.5 * (edges[:, :-1, None] + edges[:, 1:, None])
    half = 0.5 * (edges[:, 1:, None] - edges[:, :-1, None])
    rows = edges.shape[0]
    return (mid + half * base_x).reshape(rows, -1), (half * base_w).reshape(rows, -1)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _rule_cached(
    half_width: float, panels: int, order: int, breakpoints: tuple[float, ...]
) -> QuadratureRule:
    edges, _ = _panel_edges(np.array([breakpoints], dtype=float), panels, half_width)
    nodes, weights = _nodes_and_weights(edges, order)
    return QuadratureRule(nodes=nodes[0], weights=weights[0], support=(-half_width, half_width))


def quadrature_rule(
    *,
    panels: int = DEFAULT_PANELS,
    order: int = DEFAULT_ORDER,
    half_width: float = HALF_WIDTH,
    breakpoints: Iterable[float] = (),
) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-half_width, half_width].

    The rule lives in the standardized variable; callers shift it to
    wherever the normal density is centered.  Breakpoints (given in the
    standardized variable) become extra panel edges.  Ones outside the
    open support are dropped: beyond the truncation point they cannot
    affect the integral.
    """
    if panels < 1 or order < 2:
        raise ValueError("quadrature_rule: need panels >= 1 and order >= 2")
    if not half_width > 0.0:
        raise ValueError("quadrature_rule: half_width must be positive")
    bp = tuple(sorted(float(b) for b in breakpoints if -half_width < float(b) < half_width))
    return _rule_cached(float(half_width), int(panels), int(order), bp)


def quadrature_rules(
    breakpoints: np.ndarray,
    *,
    panels: int = DEFAULT_PANELS,
    order: int = DEFAULT_ORDER,
    half_width: float = HALF_WIDTH,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One composite rule per row of a 2-d array of breakpoints.

    Returns nodes, weights and sizes, the first two of shape
    (rows, width): the first sizes[i] entries of row i are, bit for
    bit, the nodes and weights of
    ``quadrature_rule(breakpoints=breakpoints[i])`` with the same
    knobs.  The rest of the row is padding, nodes on the upper end of
    the support with weight zero.  With no breakpoint columns every row
    is the cached plain rule, returned as a read-only view.
    """
    plain = quadrature_rule(panels=panels, order=order, half_width=half_width)
    breakpoints = np.asarray(breakpoints, dtype=float)
    rows = breakpoints.shape[0]
    if breakpoints.shape[1] == 0:
        shape = (rows, plain.nodes.size)
        return (
            np.broadcast_to(plain.nodes, shape),
            np.broadcast_to(plain.weights, shape),
            np.full(rows, plain.nodes.size),
        )
    edges, counts = _panel_edges(breakpoints, panels, half_width)
    nodes, weights = _nodes_and_weights(edges, order)
    return nodes, weights, (counts - 1) * order
