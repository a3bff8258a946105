"""Quadrature helpers that only the tests use.

``integrate_against_shifted_normal`` composes an arbitrary integrand
with the package's quadrature engine, ``kernel_moments`` gives the
moments of the smoothing kernel under a shifted normal that r is built
from, and ``m_k`` is the first of them.  The tests use all three as
independent routes to quantities the package computes in closed form.
"""

import math
from typing import Callable, Iterable

import numpy as np

from smoothci import gauss
from smoothci.gauss import phi, quadrature_rule
from smoothci.kernel import PretestSpec, k


def integrate_against_shifted_normal(
    f: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    *,
    breakpoints: Iterable[float] = (),
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
    half_width: float = gauss.HALF_WIDTH,
) -> float:
    """Integral of f(h) * phi(h - gamma) dh over the truncated support.

    Parameters
    ----------
    f:
        Integrand, evaluated at arrays of h values.  A scalar-only
        callable works too; it is applied pointwise.
    gamma:
        Center of the normal density.  The support is
        [gamma - half_width, gamma + half_width].
    breakpoints:
        Locations (in h) where f jumps or has a kink.  Panels are split
        there.
    panels, order, half_width:
        Engine knobs; defaults match the package-wide fixed rule.

    A non-finite value of f at any node aborts the integration with an
    error, never a silent wrong value.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError("integrate_against_shifted_normal: gamma must be finite")
    std_breaks = (float(b) - gamma for b in breakpoints)
    rule = quadrature_rule(
        panels=panels, order=order, half_width=half_width, breakpoints=std_breaks
    )
    z = rule.nodes
    try:
        vals = np.asarray(f(gamma + z), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != z.shape:
        vals = np.fromiter((float(f(gamma + zi)) for zi in z), dtype=float, count=z.size)
    if not np.all(np.isfinite(vals)):
        raise ValueError(
            "integrate_against_shifted_normal: integrand returned a non-finite value"
        )
    return float(np.dot(rule.weights, phi(z) * vals))


def kernel_moments(
    g: np.ndarray, spec: PretestSpec, panels: int, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, covariance-with-identity, and variance of k(z), z ~ N(g, 1).

    Returns, for each entry of g,
        mk  = E k(z),
        cov = E k(z) (z - g),
        var = E (k(z) - mk)^2,
    all by quadrature over a panels x order matrix of k values in the
    standardized variable.
    """
    rule = quadrature_rule(panels=panels, order=order)
    z = rule.nodes
    w = rule.weights * phi(z)
    kmat = k(g[None, :] + z[:, None], spec)
    mk = w @ kmat
    cov = (w * z) @ kmat
    var = w @ (kmat - mk[None, :]) ** 2
    return mk, cov, var


def m_k(
    gamma: float | np.ndarray,
    spec: PretestSpec,
    *,
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
) -> float | np.ndarray:
    """Mean of k(z) under z ~ N(gamma, 1), by quadrature."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if g.ndim != 1:
        raise ValueError("m_k: gamma must be scalar or 1-d")
    if not np.all(np.isfinite(g)):
        raise ValueError("m_k: gamma must be finite")
    mk, _, _ = kernel_moments(g, spec, panels, order)
    return float(mk[0]) if np.isscalar(gamma) or np.asarray(gamma).ndim == 0 else mk
