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

Each rule is one entry of ``kernel.RULES``: one function of the
standardized restriction statistic h that returns the center shift
and the half-width factor together.  build_interval and the two
integrals below read the rule from there and nowhere else, with one
call per interval or per span of the lattice, so work the two parts
share is done once.

Coverage probabilities and scaled expected lengths depend on the
unknown true parameters only through the standardized restriction
offset gamma and the design correlation rho, bundled as a Scenario.
The PMS coverage is closed form: bivariate normal probabilities from
Owen's T (gauss.bvn_orthant).  The SD and SD_DELTA coverage and
length are one-dimensional integrals in h against the N(gamma, 1)
density, on a lattice of Gauss-Legendre panels anchored at h = 0 that
does not depend on gamma: each gamma reads the window of whole panels
covering [gamma - 8, gamma + 8].  The rule's shift and factor depend
on h alone, so the pair is evaluated once per lattice node per call,
not once per (gamma, node), and the minimizer's golden-section steps
read their windows from the lattice of its grid.  The panels are narrowed
as |rho| nears 1 or the cutoff grows, where the integrand switches
over a short range of h, so the default rule holds its accuracy up to
RHO_MAX.  Nothing here takes quadrature knobs: every integral uses
the lattice's one rule, gauss.DEFAULT_PANELS panels of DEFAULT_ORDER
nodes at the least.  The tests check it against an independent
quadrature in h that shares only the rules of kernel.RULES with this
module (tests/helpers.py).

A Scenario's gamma may be a 1-d array: the coverage and length
functions then return one value per gamma, as an array, and a float
for a float.  An integral walks its gammas in blocks of at most
BLOCK_NODES (gamma, node) pairs, which bounds the temporaries of a long
grid; a lattice node's bits depend only on its panel's index, and every
gamma's window is summed on its own, so a gamma's value does not depend
on the grid it came in: the array call equals the scalar calls bit for
bit.  The minimizer's grid and every curve are one such call, and an
evaluation that fails names the first gamma it fails at.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gauss, kernel
from .gauss import Phi_interval, phi, z_quantile
from .kernel import RHO_MAX, FittedModel, IntervalRule, PretestSpec

#: Tolerance on the minimized coverage value implied by stopping the
#: golden-section refinement at a gamma resolution of GAMMA_TOL.
REFINEMENT_TOL = 1e-7
GAMMA_TOL = 1e-4
SEARCH_GRID_STEP = 0.05
SEARCH_GAMMA_MAX = 12.0
#: Most (gamma, node) pairs one pass of a coverage or length integral
#: evaluates: 31 of the default 410-node windows, 4 of the 2,790-node
#: windows at RHO_MAX and the default cutoff.
BLOCK_NODES = 32 * 400
#: Most widths over which a conditional coverage switches that one
#: lattice panel may span (see _panel_width).  With 1.5 the default
#: rule stays within 5e-15 of a 1280 x 20 one for cutoffs up to 10 and
#: |rho| up to RHO_MAX; with 2 the error reaches 4e-13.
PANEL_SWITCHES = 1.5
#: Most lattice nodes one integral keeps shift and factor values for;
#: gammas spread farther apart are integrated in several passes.
LATTICE_NODES = 1 << 16

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
    shift, factor = kernel.RULES[which].terms(fit.gamma_hat, fit.rho, spec)
    center = kernel._center(fit, shift)
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


def _panel_width(rho: float, spec: PretestSpec) -> tuple[float, int]:
    """Width of the h-lattice's panels and the panels one window spans.

    Given h the standardized estimate has standard deviation
    s = sqrt(1 - rho^2), and its distance from a smoothed interval's
    center, rho (h - gamma) - rho k(h), moves at rate |rho| (1 - q(h))
    in h; 1 - q peaks at about 1 - q(d), near h = +-d.  So the
    conditional coverage switches over an h-width of about
    s / (|rho| (1 - q(d))), which at |rho| near 1 or a large cutoff is
    far narrower than the default panel.  The support 2 * HALF_WIDTH
    gets at least DEFAULT_PANELS panels, none wider than PANEL_SWITCHES
    switch widths.  A window of count + 1 whole panels covers
    [gamma - HALF_WIDTH, gamma + HALF_WIDTH] wherever gamma falls.
    """
    switches = abs(rho) * (1.0 - kernel.q(spec.d, spec)) / math.sqrt(1.0 - rho * rho)
    count = max(gauss.DEFAULT_PANELS, math.ceil(2.0 * gauss.HALF_WIDTH * switches / PANEL_SWITCHES))
    return 2.0 * gauss.HALF_WIDTH / count, count + 1


class _Lattice:
    """One rule's shift and factor on the h-lattice of one correlation.

    The nodes of panel p are the one-panel rule translated to
    (p + 1/2) * width, so a node's bits depend on p alone, not on the
    span it was evaluated in.  The span last evaluated is kept, and a
    window inside it is read as a slice.  ``local`` holds a window's
    nodes relative to its first panel's lower edge.
    """

    def __init__(self, geometry: kernel.RuleGeometry, rho: float, spec: PretestSpec) -> None:
        self.width, self.window = _panel_width(rho, spec)
        self.rule = gauss.quadrature_rule(panels=1, half_width=0.5 * self.width)
        self.local = self._nodes(0, self.window)
        self.geometry, self.rho, self.spec = geometry, rho, spec
        # (first panel, end panel, shift, factor), replaced as a whole.
        self.kept: tuple = (0, 0, None, None)

    def _nodes(self, lo: int, hi: int) -> np.ndarray:
        return (((np.arange(lo, hi) + 0.5) * self.width)[:, None] + self.rule.nodes).ravel()

    def first_panels(self, gammas: np.ndarray) -> np.ndarray:
        """Index of the first panel of each gamma's window.

        Clipped to +-2^62 so that any finite gamma gets an int64 index;
        a gamma past the clip by more than a window lies so far from
        its window that the integrals take their large-gamma limits.
        """
        first = np.floor((gammas - gauss.HALF_WIDTH) / self.width)
        return np.clip(first, -2.0**62, 2.0**62).astype(np.int64)

    def span(self, lo: int, hi: int) -> list[np.ndarray]:
        """Shift and factor at the nodes of panels lo to hi - 1."""
        kept_lo, kept_hi, *values = self.kept
        if not (kept_lo <= lo and hi <= kept_hi):
            h = self._nodes(lo, hi)
            kept_lo, values = lo, self.geometry.terms(h, self.rho, self.spec)
            self.kept = (lo, hi, *values)
        per_panel = self.rule.nodes.size
        return [v[(lo - kept_lo) * per_panel : (hi - kept_lo) * per_panel] for v in values]


@lru_cache(maxsize=1)
def _lattice(geometry: kernel.RuleGeometry, rho: float, spec: PretestSpec) -> _Lattice:
    """The lattice of the last (rule, rho, spec) integrated.

    Consecutive integrals of one rule, such as the minimizer's grid and
    its golden-section steps, read their windows from one evaluation.
    """
    return _Lattice(geometry, rho, spec)


def _windows(scenario: Scenario, spec: PretestSpec, which: IntervalRule):
    """The scenario's gammas in blocks, each with its windows of the lattice.

    Yields (positions, gammas, mass, zeta, shift, factor): the block's
    positions among the scenario's gammas, those gammas as a column,
    and per gamma a row of its window's density mass (quadrature weight
    times phi(h - gamma)), nodes as h - gamma, shifts and factors.
    h - gamma is the window's offset from gamma plus the nodes' offsets
    in the window, so it keeps its precision however large gamma is.
    Gammas are taken in the order of their windows; a run of them whose
    windows fit in LATTICE_NODES shares one lattice evaluation, and a
    block holds at most BLOCK_NODES nodes (at least one window).
    """
    lattice = _lattice(kernel.RULES[which], scenario.rho, spec)
    gammas = np.atleast_1d(np.asarray(scenario.gamma, dtype=float))
    first = lattice.first_panels(gammas)
    by_window = np.argsort(first, kind="stable")
    first_sorted = first[by_window]
    nodes = lattice.local.size
    rows = max(1, BLOCK_NODES // nodes)
    order = lattice.rule.nodes.size
    reach = max(LATTICE_NODES // order, lattice.window) - lattice.window
    weights = np.tile(lattice.rule.weights, lattice.window)
    start = 0
    while start < gammas.size:
        lo = first_sorted[start]
        stop = int(np.searchsorted(first_sorted, lo + reach, side="right"))
        values = lattice.span(lo, first_sorted[stop - 1] + lattice.window)
        # Windows start on panel edges: every order-th sliding window.
        views = [sliding_window_view(v, nodes)[::order] for v in values]
        for at in range(start, stop, rows):
            positions = by_window[at : min(at + rows, stop)]
            gamma = gammas[positions, None]
            zeta = (first[positions, None] * lattice.width - gamma) + lattice.local
            offsets = first[positions] - lo
            yield (positions, gamma, weights * phi(zeta), zeta,
                   *(view[offsets] for view in views))
        start = stop


def _row_sums(mass: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of mass * terms along each row, one dot product per row,
    so a row's sum does not depend on the other rows of its block."""
    return np.matmul(mass[:, None, :], terms[:, :, None])[:, 0, 0]


def _failure(gamma: np.ndarray, ok: np.ndarray, problem) -> RuntimeError:
    """A RuntimeError naming the first gamma of a block whose row is not ok."""
    return RuntimeError(f"evaluation failed at gamma = {gamma[np.argmin(ok), 0]}: {problem}")


def _like(scenario: Scenario, values: np.ndarray) -> float | np.ndarray:
    """A float for a scalar gamma, else the array."""
    return float(values[0]) if np.ndim(scenario.gamma) == 0 else values


def _coverage(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    which: IntervalRule,
) -> float | np.ndarray:
    """Exact coverage probability of rule ``which``'s interval.

    Conditioning on the standardized restriction statistic h turns the
    coverage event into a normal interval probability: the interval
    covers when the standardized estimate lies within z * factor(h) of
    shift(h), and given h that estimate is N(rho * (h - gamma),
    1 - rho^2).  Integrating against the density of h gives a single
    absolutely convergent integral, taken on each gamma's window of
    the rule's h-lattice.  The rule must be continuous in h.  What is
    integrated is the departure from the full-model interval at
    rho = 0, whose conditional coverage is the same at every h: at
    rho = 0 every rule is that interval and the coverage comes out
    exactly flat in gamma, and the few 1e-15 of density mass beyond a
    window multiply only the departure.
    """
    alpha = _check_alpha(alpha)
    z_a = z_quantile(1.0 - 0.5 * alpha)
    rho = scenario.rho
    # The full-model interval covers with this probability given any h
    # at rho = 0; only the departure from it is integrated.
    nominal = Phi_interval(-z_a, z_a, 0.0, 1.0)
    out = np.empty(np.size(scenario.gamma))
    for positions, gamma, mass, zeta, shift, factor in _windows(scenario, spec, which):
        half = z_a * factor
        lower, upper = shift - half, shift + half
        try:
            terms = Phi_interval(lower, upper, rho * zeta, 1.0 - rho * rho)
        except ValueError as exc:
            ok = np.all(lower <= upper, axis=1)
            raise (_failure(gamma, ok, exc) if not np.all(ok) else exc) from exc
        cp = nominal + _row_sums(mass, terms - nominal)
        ok = (0.0 <= cp) & (cp <= 1.0)
        if not np.all(ok):
            raise _failure(gamma, ok, f"coverage integrated to {cp[np.argmin(ok)]}, "
                                      "outside [0, 1]")
        out[positions] = cp
    return _like(scenario, out)


def coverage_sd(scenario: Scenario, spec: PretestSpec, alpha: float) -> float | np.ndarray:
    """Exact coverage probability of the SD interval.

    Even in gamma and in rho; equal to 1 - alpha for every gamma when
    rho = 0.
    """
    return _coverage(scenario, spec, alpha, IntervalRule.SD)


def coverage_sd_delta(scenario: Scenario, spec: PretestSpec, alpha: float) -> float | np.ndarray:
    """Exact coverage probability of the SD_DELTA interval."""
    return _coverage(scenario, spec, alpha, IntervalRule.SD_DELTA)


def coverage_pms(scenario: Scenario, spec: PretestSpec, alpha: float) -> float | np.ndarray:
    """Exact coverage probability of the naive post-selection interval.

    Closed form.  With X = h - gamma and T the standardized estimate
    (standard normals with correlation rho), U = T - rho X is
    independent of X.  While the pretest accepts (|h| <= d) the
    interval covers iff |U - rho gamma| <= z sqrt(1 - rho^2); otherwise
    iff |T| <= z.  So

        cp = [Phi(d - g) - Phi(-d - g)] [Phi(z - m) - Phi(-z - m)]
             + P(X not in [-d - g, d - g], |T| <= z),

    m = |rho| g / sqrt(1 - rho^2).  The last term, (2 Phi(z) - 1)
    minus the rectangle P(X in [-d - g, d - g], |T| <= z), is taken as
    the two strips beyond the cutoffs, each a difference of two
    bivariate orthants: near |rho| = 1 it can be far smaller than the
    rounding error of that subtraction.  Everything is computed with
    |rho|, so the coverage is even in rho bit for bit, and with the
    reflection-exact Phi_interval, so it is even in gamma bit for bit.
    At rho = 0 it is identically 1 - alpha.
    """
    alpha = _check_alpha(alpha)
    z_a = z_quantile(1.0 - 0.5 * alpha)
    rho = abs(scenario.rho)
    gamma = np.asarray(scenario.gamma, dtype=float)
    d = spec.d
    accept = Phi_interval(-d, d, gamma, 1.0)
    narrow = Phi_interval(-z_a, z_a, rho * gamma / math.sqrt(1.0 - rho * rho), 1.0)
    beyond = np.array([d - gamma, d + gamma])
    strips = gauss.bvn_orthant(beyond, z_a, rho) - gauss.bvn_orthant(beyond, -z_a, rho)
    cp = np.clip(accept * narrow + (strips[0] + strips[1]), 0.0, 1.0)
    return float(cp) if np.ndim(scenario.gamma) == 0 else cp


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
    if not SEARCH_GRID_STEP < gamma_max < math.inf:
        raise ValueError(f"min_coverage: need {SEARCH_GRID_STEP} < gamma_max < inf, "
                         f"got {gamma_max}")
    cov = _COVERAGE_BY_RULE[which]

    def f(g: float) -> float:
        return cov(Scenario(gamma=float(g), rho=rho), spec, alpha)

    n = int(math.floor(gamma_max / SEARCH_GRID_STEP + 1e-9))
    grid = np.arange(n + 1) * SEARCH_GRID_STEP
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
        search_grid_step=SEARCH_GRID_STEP,
        refinement_tolerance=REFINEMENT_TOL,
    )


def _scaled_length(
    scenario: Scenario,
    spec: PretestSpec,
    alpha: float,
    c_min: float,
    which: IntervalRule,
) -> float | np.ndarray:
    """Expected half-width factor of rule ``which`` over the flat-rate one.

    The flat-rate interval is centered on the unrestricted estimate and
    calibrated to confidence level c_min, so the ratio is
    z_{1 - alpha/2} E[factor(h)] / z_{(1 + c_min)/2}, the expectation
    taken on the same h-lattice windows as the coverage, as 1 plus
    that of factor - 1 (the flat rate's factor), for the same reasons.
    """
    alpha = _check_alpha(alpha)
    c_min = float(c_min)
    if not 0.0 < c_min < 1.0:
        raise ValueError(f"scaled expected length: c_min must be in (0, 1), got {c_min}")
    ratio = z_quantile(1.0 - 0.5 * alpha) / z_quantile(0.5 * (1.0 + c_min))
    out = np.empty(np.size(scenario.gamma))
    for positions, gamma, mass, _, _, factor in _windows(scenario, spec, which):
        ok = np.all(np.isfinite(factor), axis=1)
        if not np.all(ok):
            raise _failure(gamma, ok, "length integrand produced a non-finite value")
        out[positions] = ratio * (1.0 + _row_sums(mass, factor - 1.0))
    return _like(scenario, out)


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
    grid.  The grid is one array call, whose failures name the first
    gamma they hit.
    """
    quantity = Quantity(quantity)
    alpha = _check_alpha(alpha)
    rho = Scenario(0.0, float(rho)).rho
    if not 0.0 < step <= gamma_max < math.inf:
        raise ValueError("curve: need 0 < step <= gamma_max < inf")
    n = int(math.floor(gamma_max / step + 1e-9))
    grid = np.arange(n + 1) * step

    rule = _RULE_BY_QUANTITY[quantity]
    if quantity in _COVERAGE_QUANTITIES:
        values = _COVERAGE_BY_RULE[rule](Scenario(grid, rho), spec, alpha)
    else:
        c_min = min_coverage(rho, spec, alpha, rule).c_min
        values = _SEL_BY_RULE[rule](Scenario(grid, rho), spec, alpha, c_min)
    return CurveTable(
        gammas=grid,
        values=values,
        quantity=quantity,
        scenario_rho=rho,
        alpha=alpha,
        pretest=spec,
    )
