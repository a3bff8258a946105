"""Quadrature and simulation helpers that only the tests use.

``breakpoint_rule`` is a composite Gauss-Legendre rule with extra
panel edges where an integrand jumps, ``integrate_against_shifted_normal``
composes an arbitrary integrand with it, ``h_quadrature`` integrates the
coverage and length of any interval rule with one such rule in h,
``kernel_moments`` gives the moments of the smoothing kernel under a
shifted normal that r is built from, and ``m_k`` is the first of them.
``centers_finite_B_whole_blocks`` is the oracle's finite-B chunk path
with each block drawn and reduced in one piece, and ``parse_rows_by_cell``
the CSV loader that converts and checks one cell at a time.
The tests use them as independent routes to quantities the package
computes in closed form or on its own lattice.  Against h_quadrature
the package's five coverage and length functionals agree to within
5e-15 at the cutoffs 1.645, 2 and 10 and |rho| from 0.7 to RHO_MAX.
"""

import csv
import math
from typing import Callable, Iterable

import numpy as np
from scipy.special import ndtr, ndtri

from smoothci import gauss, kernel, oracle
from smoothci.gauss import QuadratureRule, phi
from smoothci.kernel import IntervalRule, PretestSpec, k


def breakpoint_rule(
    breakpoints: Iterable[float] = (),
    *,
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
    half_width: float = gauss.HALF_WIDTH,
) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-half_width, half_width] whose
    panels are also split at the given breakpoints.

    Breakpoints outside the open support are dropped.  One within
    rounding distance (1e-12 * half_width) of the last edge kept would
    make a sliver panel whose nodes collide, so it is merged away; the
    upper boundary always survives, replacing the last edge kept
    before it if need be.
    """
    inside = [float(b) for b in breakpoints if -half_width < float(b) < half_width]
    edges = sorted(list(np.linspace(-half_width, half_width, panels + 1)) + inside)
    tol = 1e-12 * half_width
    kept = [edges[0]]
    for edge in edges[1:-1]:
        if edge - kept[-1] > tol:
            kept.append(edge)
    if edges[-1] - kept[-1] <= tol:
        kept.pop()
    kept = np.array(kept + [edges[-1]])
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (kept[:-1, None] + kept[1:, None])
    half = 0.5 * (kept[1:, None] - kept[:-1, None])
    return QuadratureRule(nodes=(mid + half * base_x).ravel(),
                          weights=(half * base_w).ravel(),
                          support=(-half_width, half_width))


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
    rule = breakpoint_rule(std_breaks, panels=panels, order=order, half_width=half_width)
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


#: Panels per unit of h, and nodes per panel, of h_quadrature's rule.
H_PANELS_PER_UNIT = 80
H_ORDER = 20
#: Most (gamma, node) pairs h_quadrature holds at once.
H_BLOCK = 1 << 16


def h_quadrature(
    gammas: Iterable[float],
    rho: float,
    spec: PretestSpec,
    alpha: float,
    which: IntervalRule,
    c_min: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Coverage and scaled expected length of rule ``which`` at each gamma.

    One composite Gauss-Legendre rule in the restriction statistic h,
    H_PANELS_PER_UNIT panels per unit of H_ORDER nodes each, covers
    [min gamma - 8, max gamma + 8], with h = +-d as extra panel edges
    where the PMS rule jumps.  The rule's shift and factor are taken
    once on it; each gamma then sums, against phi(h - gamma), the
    conditional coverage (given h the standardized estimate is
    N(rho (h - gamma), 1 - rho^2)) and the factor, which over
    z_{(1 + c_min)/2} / z_{1 - alpha/2} is the scaled length.  Only the
    rules of kernel.RULES are shared with the package: no lattice, no
    windows, no departure from the nominal coverage, and scipy's normal
    CDF and quantile, not the package's.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    lo = gammas.min() - gauss.HALF_WIDTH
    hi = gammas.max() + gauss.HALF_WIDTH
    center, half_width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    rule = breakpoint_rule((-spec.d - center, spec.d - center),
                           panels=math.ceil(H_PANELS_PER_UNIT * (hi - lo)),
                           order=H_ORDER, half_width=half_width)
    h = center + rule.nodes
    shift, factor = kernel.RULES[which].terms(h, rho, spec)
    z_a = ndtri(1.0 - 0.5 * alpha)
    s = math.sqrt(1.0 - rho * rho)
    lower, upper = (shift - z_a * factor) / s, (shift + z_a * factor) / s
    ratio = z_a / ndtri(0.5 * (1.0 + c_min))
    coverage, length = np.empty(gammas.size), np.empty(gammas.size)
    rows = max(1, H_BLOCK // h.size)
    for at in range(0, gammas.size, rows):
        zeta = h - gammas[at : at + rows, None]
        mass = rule.weights * np.exp(-0.5 * zeta * zeta) / math.sqrt(2.0 * math.pi)
        mean = rho * zeta / s
        coverage[at : at + rows] = np.sum(mass * (ndtr(upper - mean) - ndtr(lower - mean)),
                                          axis=1)
        length[at : at + rows] = ratio * np.sum(mass * factor, axis=1)
    return coverage, length


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
    rule = breakpoint_rule(panels=panels, order=order)
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


def centers_finite_B_whole_blocks(
    theta_std: np.ndarray,
    gamma_hat: np.ndarray,
    rho: float,
    spec: PretestSpec,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Finite-B smoothed centers, one (2, rows, B) draw per block.

    The same stream order and expressions as
    ``oracle._centers_finite_B``, with both planes of a block and all
    their temporaries held at once.
    """
    m = theta_std.size
    out = np.empty(m)
    rows = max(1, oracle._MAX_BOOT_BLOCK // B)
    sq = math.sqrt(1.0 - rho * rho)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        z = rng.standard_normal((2, stop - start, B))
        gamma_star = gamma_hat[start:stop, None] + z[0]
        theta_star = theta_std[start:stop, None] + rho * z[0] + sq * z[1]
        out[start:stop] = np.mean(theta_star - kernel._pms_shift(gamma_star, rho, spec),
                                  axis=1)
    return out


def parse_rows_by_cell(path: str, header: bool) -> list[list[float]]:
    """The rows of numbers in a CSV file, each cell converted on its own.

    ``linmod._parse_rows`` converts a row in one call and looks at its
    cells only when that fails; this loop is the reference it must
    match, in values, skipped rows and error messages, the reader's own
    errors (csv.Error) included.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for recno, row in enumerate(reader, start=1):
                if recno == 1 and header:
                    continue
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                vals = []
                for colno, cell in enumerate(row, start=1):
                    try:
                        vals.append(float(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {reader.line_num}, column {colno}: "
                            f"cannot parse {cell.strip()!r} as a number"
                        ) from None
                if width is None:
                    width = len(vals)
                elif len(vals) != width:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected {width} columns, got {len(vals)}"
                    )
                rows.append(vals)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows
