"""Confidence intervals and their exact coverage and length functionals.

Four interval constructions share one centering-plus-half-width shape:

* ``FULL_MODEL``: centered on the unrestricted estimate, half width
  z * sigma * sqrt(v_theta).  Exact 1 - alpha coverage always.
* ``PMS``: centered on the select-then-estimate value, with the narrow
  restricted-model half width when the pretest accepts.  The naive
  interval whose coverage collapse motivates everything else here.
* ``SD``: centered on the smoothed estimate, half width scaled by the
  exact standard deviation factor r of the smoothed estimator.
* ``SD_DELTA``: same center, scale factor r_delta from the local slope
  of the smoothing kernel instead of the exact moments.

Each rule is one entry of ``kernel.RULES``: a center shift and a
half-width factor, both functions of the standardized restriction
statistic, plus the statistic values where the rule jumps.
build_interval and the two integrals below read the rule from there
and nowhere else.

Coverage probabilities and scaled expected lengths are deterministic
one-dimensional integrals against a shifted normal density, evaluated
on the fixed quadrature engine.  They depend on the unknown true
parameters only through the standardized restriction offset gamma and
the design correlation rho, bundled as a Scenario.  The coverage
functions take the engine's ``panels=`` and ``order=`` knobs for that
one integral, so a refined rule can serve as a reference; the rules'
half-width factors are closed forms and take no knobs.  The length
functions, the minimizer and the curve tables always use the default
rule.

A Scenario's gamma may be a 1-d array: the coverage and length
functions then return one value per gamma, as an array, and a float
for a float.  Each integral evaluates its gammas in blocks of at most
BLOCK_GAMMAS rows of quadrature nodes, one pass through the rule's
shift and factor per block, which bounds the temporaries of a long
grid.  Every row is summed on its own, so a gamma's value does not
depend on the grid it came in: the array call equals the scalar calls
bit for bit.  The minimizer's grid and every curve are one such call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import gauss, kernel
from .gauss import Phi_interval, phi, z_quantile
from .kernel import RHO_MAX, FittedModel, IntervalRule, PretestSpec

#: Tolerance on the minimized coverage value implied by stopping the
#: golden-section refinement at a gamma resolution of GAMMA_TOL.
REFINEMENT_TOL = 1e-7
GAMMA_TOL = 1e-4
SEARCH_GRID_STEP = 0.05
SEARCH_GAMMA_MAX = 12.0
#: Most gammas one pass of a coverage or length integral evaluates: a
#: block is this many rows of quadrature nodes (400 by default).
BLOCK_GAMMAS = 32

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class Quantity(str, enum.Enum):
    """Curve quantities: coverage probabilities and scaled expected lengths."""

    CP = "cp"
    CP_DELTA = "cp_delta"
    CP_PMS = "cp_pms"
    SEL = "sel"
    SEL_DELTA = "sel_delta"


_COVERAGE_QUANTITIES = frozenset({Quantity.CP, Quantity.CP_DELTA, Quantity.CP_PMS})
_RULE_BY_QUANTITY = {
    Quantity.CP: IntervalRule.SD,
    Quantity.CP_DELTA: IntervalRule.SD_DELTA,
    Quantity.CP_PMS: IntervalRule.PMS,
    Quantity.SEL: IntervalRule.SD,
    Quantity.SEL_DELTA: IntervalRule.SD_DELTA,
}


@dataclass(frozen=True)
class Scenario:
    """True-parameter configuration on the standardized scale.

    gamma is the restriction offset in units of its standard error,
    rho the design correlation.  Together they pin down every coverage
    and length functional in this module.  gamma may also be a
    non-empty 1-d array of offsets, kept as a read-only copy; the
    functionals then return one value per offset.  Such a Scenario is
    neither hashable nor comparable with ==.
    """

    gamma: float | np.ndarray
    rho: float

    def __post_init__(self) -> None:
        if np.ndim(self.gamma) == 0:
            if not math.isfinite(self.gamma):
                raise ValueError(f"Scenario: gamma must be finite, got {self.gamma}")
        else:
            gamma = np.array(self.gamma, dtype=float)
            if gamma.ndim != 1 or gamma.size == 0 or not np.all(np.isfinite(gamma)):
                raise ValueError(
                    "Scenario: gamma must be a finite float or a non-empty 1-d array of them"
                )
            gamma.setflags(write=False)
            object.__setattr__(self, "gamma", gamma)
        if not math.isfinite(self.rho) or abs(self.rho) > RHO_MAX:
            raise ValueError(
                f"Scenario: rho must satisfy |rho| <= {RHO_MAX}, got {self.rho}"
            )


@dataclass(frozen=True)
class IntervalReport:
    """A realized confidence interval plus its construction metadata."""

    lower: float
    upper: float
    center: float
    half_width: float
    rule: IntervalRule
    nominal_coverage: float

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "center", "half_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"IntervalReport: {name} must be finite")
        if self.lower > self.upper:
            raise ValueError("IntervalReport: lower exceeds upper")
        if self.half_width < 0.0:
            raise ValueError("IntervalReport: negative half width")
        if self.center != 0.5 * (self.lower + self.upper):
            raise ValueError("IntervalReport: center is not the midpoint")
        if self.half_width != 0.5 * (self.upper - self.lower):
            raise ValueError("IntervalReport: half width does not match the endpoints")
        if not 0.0 < self.nominal_coverage < 1.0:
            raise ValueError("IntervalReport: nominal coverage must be in (0, 1)")
        if not isinstance(self.rule, IntervalRule):
            raise ValueError("IntervalReport: rule must be an IntervalRule")


@dataclass(frozen=True)
class MinCoverageReport:
    """Result of minimizing a coverage curve over gamma >= 0."""

    c_min: float
    argmin_gamma: float
    search_grid_step: float
    refinement_tolerance: float

    def __post_init__(self) -> None:
        # A true minimum below the smallest double reads 0.0: a result,
        # not bad input.
        if not 0.0 <= self.c_min < 1.0:
            raise ValueError("MinCoverageReport: c_min must be in [0, 1)")
        if not self.argmin_gamma >= 0.0:
            raise ValueError("MinCoverageReport: argmin_gamma must be >= 0")
        if self.search_grid_step <= 0.0 or self.refinement_tolerance <= 0.0:
            raise ValueError("MinCoverageReport: step and tolerance must be positive")


@dataclass(frozen=True, eq=False)
class CurveTable:
    """One tabulated quantity on a uniform gamma grid, ready for CSV."""

    gammas: np.ndarray
    values: np.ndarray
    quantity: Quantity
    scenario_rho: float
    alpha: float
    pretest: PretestSpec

    def __post_init__(self) -> None:
        gammas = np.asarray(self.gammas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if gammas.ndim != 1 or gammas.shape != values.shape or gammas.size == 0:
            raise ValueError("CurveTable: gammas and values must be equal-length 1-d arrays")
        if gammas[0] < 0.0 or np.any(np.diff(gammas) <= 0.0):
            raise ValueError("CurveTable: gammas must be non-negative and increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("CurveTable: non-finite value")
        if self.quantity in _COVERAGE_QUANTITIES:
            if np.any(values < 0.0) or np.any(values > 1.0):
                raise ValueError("CurveTable: coverage values must lie in [0, 1]")
        elif np.any(values <= 0.0):
            raise ValueError("CurveTable: length ratios must be positive")
        gammas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "values", values)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"confidence level parameter alpha must be in (0, 1), got {alpha}")
    return alpha


def build_interval(
    fit: FittedModel, spec: PretestSpec, alpha: float, which: IntervalRule
) -> IntervalReport:
    """Realized 1 - alpha interval for the parameter of interest.

    All four rules produce center +- half_width intervals on the
    original (unstandardized) scale of the data.  At rho = 0 the SD,
    SD_DELTA and PMS intervals all collapse to the FULL_MODEL one,
    endpoint for endpoint.
    """
    alpha = _check_alpha(alpha)
    which = IntervalRule(which)
    z_a = z_quantile(1.0 - 0.5 * alpha)
    scale = fit.sigma * math.sqrt(fit.v_theta)
    center = kernel._center(fit, spec, which)
    factor = kernel.RULES[which].factor(fit.gamma_hat, fit.rho, spec)
    half_width = z_a * scale * float(factor)
    lower = center - half_width
    upper = center + half_width
    return IntervalReport(
        lower=lower,
        upper=upper,
        center=0.5 * (lower + upper),
        half_width=0.5 * (upper - lower),
        rule=which,
        nominal_coverage=1.0 - alpha,
    )


def _blocks(scenario: Scenario):
    """The scenario's gammas as columns of at most BLOCK_GAMMAS rows."""
    gammas = np.atleast_1d(np.asarray(scenario.gamma, dtype=float))
    for start in range(0, gammas.size, BLOCK_GAMMAS):
        yield gammas[start : start + BLOCK_GAMMAS, None]


def _like(scenario: Scenario, values: list[np.ndarray]) -> float | np.ndarray:
    """Block results as a float for a scalar gamma, else one array."""
    out = np.concatenate(values)
    return float(out[0]) if np.ndim(scenario.gamma) == 0 else out


def _row_sums(mass: np.ndarray, terms: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of mass * terms over the first sizes[i] entries of each row i.

    Each row is one dot product of its own length, so its sum does not
    depend on the other rows of the block or on their padding.
    """
    out = np.empty(terms.shape[0])
    for n in np.unique(sizes):
        rows = sizes == n
        out[rows] = np.matmul(mass[rows, None, :n], terms[rows, :n, None])[:, 0, 0]
    return out


def _coverage(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    which: IntervalRule,
    panels: int,
    order: int,
) -> float | np.ndarray:
    """Exact coverage probability of rule ``which``'s interval.

    Conditioning on the standardized restriction statistic h turns the
    coverage event into a normal interval probability: the interval
    covers when the standardized estimate lies within z * factor(h) of
    shift(h), and given h that estimate is N(rho * (h - gamma),
    1 - rho^2).  Integrating against the density of h gives a single
    absolutely convergent integral.  Panels are split where the rule
    jumps, so no panel straddles a discontinuity; each gamma of a block
    gets its own rule.
    """
    alpha = _check_alpha(alpha)
    geometry = kernel.RULES[which]
    z_a = z_quantile(1.0 - 0.5 * alpha)
    rho = scenario.rho
    jumps = np.asarray(geometry.jumps(spec), dtype=float)
    values = []
    for gamma in _blocks(scenario):
        zeta, weights, sizes = gauss.quadrature_rules(jumps - gamma, panels=panels, order=order)
        mass = weights * phi(zeta)
        h = gamma + zeta
        shift = geometry.shift(h, rho, spec)
        half = z_a * geometry.factor(h, rho, spec)
        terms = Phi_interval(shift - half, shift + half, rho * zeta, 1.0 - rho * rho)
        if not np.all(np.isfinite(terms)):
            raise RuntimeError("coverage integrand produced a non-finite value")
        cp = _row_sums(mass, terms, sizes)
        outside = ~((0.0 <= cp) & (cp <= 1.0))
        if np.any(outside):
            raise RuntimeError(f"coverage integrated to {cp[outside][0]}, outside [0, 1]")
        values.append(cp)
    return _like(scenario, values)


def coverage_sd(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    *,
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
) -> float | np.ndarray:
    """Exact coverage probability of the SD interval.

    Even in gamma and in rho; equal to 1 - alpha for every gamma when
    rho = 0.
    """
    return _coverage(scenario, spec, alpha, IntervalRule.SD, panels, order)


def coverage_sd_delta(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    *,
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
) -> float | np.ndarray:
    """Exact coverage probability of the SD_DELTA interval."""
    return _coverage(scenario, spec, alpha, IntervalRule.SD_DELTA, panels, order)


def coverage_pms(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    *,
    panels: int = gauss.DEFAULT_PANELS,
    order: int = gauss.DEFAULT_ORDER,
) -> float | np.ndarray:
    """Exact coverage probability of the naive post-selection interval.

    The conditional coverage jumps where the pretest flips, at
    standardized statistic values +-d.  At rho = 0 both branches reduce
    to the full-width interval and the coverage is identically
    1 - alpha.
    """
    return _coverage(scenario, spec, alpha, IntervalRule.PMS, panels, order)


_COVERAGE_BY_RULE = {
    IntervalRule.SD: coverage_sd,
    IntervalRule.SD_DELTA: coverage_sd_delta,
    IntervalRule.PMS: coverage_pms,
}


def _golden_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b]."""
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    while h > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def min_coverage(
    rho: float,
    spec: PretestSpec,
    alpha: float,
    which: IntervalRule,
    *,
    grid_step: float = SEARCH_GRID_STEP,
    gamma_max: float | None = None,
) -> MinCoverageReport:
    """Minimum over gamma >= 0 of the coverage curve for one rule.

    Coverage is even in gamma, so the search runs on [0, gamma_max]
    only.  A coarse uniform grid locates the basin and a golden-section
    pass refines the minimizer to GAMMA_TOL; the reported c_min never
    exceeds any evaluated coverage.  Far beyond the pretest cutoff the
    smoothing kernel is a normal tail away from zero, so by the default
    gamma_max, SEARCH_GAMMA_MAX or the cutoff plus the quadrature half
    width if that is larger, the curve must have rejoined 1 - alpha; a
    minimum still sitting on the boundary, or a boundary value away
    from 1 - alpha, aborts the search rather than reporting a truncated
    minimum.
    """
    alpha = _check_alpha(alpha)
    which = IntervalRule(which)
    if which not in _COVERAGE_BY_RULE:
        raise ValueError(f"min_coverage: no coverage curve to minimize for rule {which!r}")
    if gamma_max is None:
        gamma_max = max(SEARCH_GAMMA_MAX, spec.d + gauss.HALF_WIDTH)
    if grid_step <= 0.0 or gamma_max <= grid_step:
        raise ValueError("min_coverage: need 0 < grid_step < gamma_max")
    cov = _COVERAGE_BY_RULE[which]

    def f(g: float) -> float:
        return cov(Scenario(gamma=float(g), rho=rho), spec, alpha)

    n = int(math.floor(gamma_max / grid_step + 1e-9))
    grid = np.arange(n + 1) * grid_step
    vals = cov(Scenario(gamma=grid, rho=rho), spec, alpha)
    i = int(np.argmin(vals))
    if i == n:
        raise RuntimeError(
            f"min_coverage: coverage still decreasing at the search boundary gamma = {grid[n]}"
        )
    if abs(vals[n] - (1.0 - alpha)) > 1e-3:
        raise RuntimeError(
            "min_coverage: coverage has not rejoined its large-gamma limit "
            f"by gamma = {grid[n]} (got {vals[n]:.6f}); widen the search"
        )
    lo = grid[i - 1] if i > 0 else grid[0]
    hi = grid[i + 1]
    g_ref, v_ref = _golden_min(f, float(lo), float(hi), GAMMA_TOL)
    best_g, best_v = (g_ref, v_ref) if v_ref < vals[i] else (float(grid[i]), float(vals[i]))
    return MinCoverageReport(
        c_min=best_v,
        argmin_gamma=best_g,
        search_grid_step=grid_step,
        refinement_tolerance=REFINEMENT_TOL,
    )


def _scaled_length(
    scenario: Scenario, spec: PretestSpec, alpha: float, c_min: float, which: IntervalRule
) -> float | np.ndarray:
    """Expected half-width factor of rule ``which`` over the flat-rate one.

    The flat-rate interval is centered on the unrestricted estimate and
    calibrated to confidence level c_min, so the ratio is
    z_{1 - alpha/2} E[factor(h)] / z_{(1 + c_min)/2}.
    """
    alpha = _check_alpha(alpha)
    c_min = float(c_min)
    if not 0.0 < c_min < 1.0:
        raise ValueError(f"scaled expected length: c_min must be in (0, 1), got {c_min}")
    ratio = z_quantile(1.0 - 0.5 * alpha) / z_quantile(0.5 * (1.0 + c_min))
    values = []
    for gamma in _blocks(scenario):
        zeta, weights, sizes = gauss.quadrature_rules(np.empty((gamma.shape[0], 0)))
        mass = weights * phi(zeta)
        factor = kernel.RULES[which].factor(gamma + zeta, scenario.rho, spec)
        if not np.all(np.isfinite(factor)):
            raise RuntimeError("length integrand produced a non-finite value")
        values.append(ratio * _row_sums(mass, factor, sizes))
    return _like(scenario, values)


def sel_sd(
    scenario: Scenario, spec: PretestSpec, alpha: float, c_min: float
) -> float | np.ndarray:
    """Scaled expected length of the SD interval.

    Expected length divided by the length of the fixed-width interval
    centered on the unrestricted estimate that achieves confidence
    level c_min, the minimum coverage of the SD interval itself.  Pass
    the c_min obtained from min_coverage for the same rho, spec and
    alpha; it enters only through the normalizing quantile, which needs
    0 < c_min < 1.
    """
    return _scaled_length(scenario, spec, alpha, c_min, IntervalRule.SD)


def sel_sd_delta(
    scenario: Scenario, spec: PretestSpec, alpha: float, c_min: float
) -> float | np.ndarray:
    """Scaled expected length of the SD_DELTA interval; see sel_sd."""
    return _scaled_length(scenario, spec, alpha, c_min, IntervalRule.SD_DELTA)


_SEL_BY_RULE = {
    IntervalRule.SD: sel_sd,
    IntervalRule.SD_DELTA: sel_sd_delta,
}


def curve(
    quantity: Quantity,
    rho: float,
    spec: PretestSpec,
    alpha: float,
    gamma_max: float,
    step: float,
) -> CurveTable:
    """Tabulate one quantity on the grid gamma_i = i * step up to gamma_max.

    Grid points are computed as i * step, never by accumulation, so a
    finer grid reproduces the shared points bit for bit.  For the
    length quantities the normalizing c_min is computed once, from the
    matching rule's minimum coverage, and reused across the whole
    grid.  The grid is one array call; if it fails, the points are
    evaluated one at a time and the first failure is re-raised with
    its gamma identified.
    """
    quantity = Quantity(quantity)
    alpha = _check_alpha(alpha)
    rho = Scenario(0.0, float(rho)).rho
    if step <= 0.0 or gamma_max < step:
        raise ValueError("curve: need 0 < step <= gamma_max")
    n = int(math.floor(gamma_max / step + 1e-9))
    grid = np.arange(n + 1) * step

    rule = _RULE_BY_QUANTITY[quantity]
    if quantity in _COVERAGE_QUANTITIES:
        cov = _COVERAGE_BY_RULE[rule]
        evaluate = lambda g: cov(Scenario(g, rho), spec, alpha)
    else:
        c_min = min_coverage(rho, spec, alpha, rule).c_min
        sel = _SEL_BY_RULE[rule]
        evaluate = lambda g: sel(Scenario(g, rho), spec, alpha, c_min)

    failures = (ValueError, ArithmeticError, RuntimeError)
    try:
        values = evaluate(grid)
    except failures:
        for g in grid:
            try:
                evaluate(float(g))
            except failures as exc:
                raise RuntimeError(f"curve: evaluation failed at gamma = {g}: {exc}") from exc
        raise
    return CurveTable(
        gammas=grid,
        values=values,
        quantity=quantity,
        scenario_rho=rho,
        alpha=alpha,
        pretest=spec,
    )
