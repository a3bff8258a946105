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
Owen's T (gauss._orthant).  The SD and SD_DELTA coverage and
length are one-dimensional integrals in h against the N(gamma, 1)
density, on a lattice of Gauss-Legendre panels anchored at h = 0 that
does not depend on gamma: each gamma reads the window of whole panels
covering [gamma - 8, gamma + 8].  The rule's shift and factor depend
on h alone, so the pair is evaluated once per lattice node, not once
per (gamma, node).  Everything an SD rule's coverage or length
evaluation needs that does not depend on gamma is prepared once per
(rule, rho, spec, alpha) and cached (_prepared, the only cache the
integrals keep): z_a, the nominal coverage, the lattice with its tiled
weights, and the shifts, factors and interval ends on a kept span of
panels.  A single gamma, such as a golden-section step of the
minimizer, then reads its window as slices of the kept span and costs
one window of arithmetic, and a coverage array evaluates only the
gammas the rule's last array did not hold.  The prepared curves are
shared, by threads too: a call takes the kept span whole, as one value,
and reads only the span it was handed, so calls on one curve from
several threads give the values one thread would.  A call that grows
or replaces the span puts a new one in place, and the memo of the last
array's coverages is last-writer-wins, its values exact.  The PMS
coverage computes the few constants of its closed form per call.
The integrals call the unchecked cores of gauss (Phi_interval's
_interval and _orthant).  Each evaluated span records whether all its
ends are ordered and all its factors finite; only when they are not
does an integral check the windows it reads, so a failure still names
its gamma and a clean span costs no check per window.  The panels are
narrowed as |rho| nears 1 or the cutoff grows, where the integrand
switches over a short range of h, so the default rule holds its
accuracy up to RHO_MAX.  Nothing here takes quadrature knobs: every
integral uses the lattice's one rule, gauss.DEFAULT_PANELS panels of
DEFAULT_ORDER nodes at the least.  The tests check it against an
independent quadrature in h that shares only the rules of kernel.RULES
with this module (tests/helpers.py).

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
from .gauss import Phi_interval, _z_alpha, _z_level
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
#: Most lattice nodes a prepared curve keeps shift and factor values
#: for; gammas spread farther apart are integrated in several passes.
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
    z_a = _z_alpha(alpha)
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


class _Curve:
    """What a smoothed rule's coverage and length integrals need apart
    from gamma, for one (rule, rho, spec, alpha).

    That is z_a, the nominal coverage, the h-lattice with its tiled
    weights, and the rule's shift and factor with the interval's ends
    shift -+ z_a factor on a kept span of panels.  The nodes of panel p
    are the one-panel rule translated to (p + 1/2) * width, so a node's
    bits depend on p alone, not on the span it was evaluated in: a
    window that overlaps the kept span or meets it only adds the panels
    it lacks, up to LATTICE_NODES nodes in all, and any other window
    replaces the span.  ``span`` is one tuple (first panel, end panel,
    arrays, clean): panels first to end - 1 are kept, with the arrays
    by name, and clean says whether every kept node has ordered ends and
    a finite factor; if not, the integrals check each window they read.
    keep replaces the tuple whole and returns what the caller reads, so
    no reader looks at the curve's span again, and a call that another
    thread's keep overtakes still reads one whole span.  ``local``
    holds, as a row, a window's nodes relative to its first panel's
    lower edge.  The coverages of the last array of gammas are kept by
    the gammas' bits (see recall).
    """

    def __init__(self, geometry: kernel.RuleGeometry, rho: float, spec: PretestSpec,
                 alpha: float) -> None:
        self.width, self.window = _panel_width(rho, spec)
        rule = gauss.quadrature_rule(panels=1, half_width=0.5 * self.width)
        self.nodes, self.order = rule.nodes, rule.nodes.size
        self.local = self._h(0, self.window)[None, :]
        self.size = self.local.size
        self.weights = np.tile(rule.weights, self.window)
        self.geometry, self.rho, self.spec = geometry, rho, spec
        self.z_a = _z_alpha(alpha)
        # The full-model interval covers with this probability given any
        # h at rho = 0; only the departure from it is integrated.
        self.nominal = Phi_interval(-self.z_a, self.z_a, 0.0, 1.0)
        self.sd = math.sqrt(1.0 - rho * rho)
        self.span: tuple[int, int, dict[str, np.ndarray], bool] = (0, 0, {}, True)
        self.memo: tuple[np.ndarray, np.ndarray] | None = None

    def _h(self, lo: int, hi: int) -> np.ndarray:
        return (((np.arange(lo, hi) + 0.5) * self.width)[:, None] + self.nodes).ravel()

    def first_panel(self, gamma: float) -> int:
        """Index of the first panel of gamma's window.

        Clipped to +-2^62 as first_panels clips, so that the two agree
        on every finite gamma; a gamma past the clip by more than a
        window lies so far from its window that the integrals take
        their large-gamma limits.  _windows holds gamma within 2^63
        panel widths, so the quotient here stays finite.
        """
        return min(max(math.floor((gamma - gauss.HALF_WIDTH) / self.width), -2**62), 2**62)

    def first_panels(self, gammas: np.ndarray) -> np.ndarray:
        """first_panel of each gamma, as int64."""
        first = np.floor((gammas - gauss.HALF_WIDTH) / self.width)
        return np.clip(first, -2.0**62, 2.0**62).astype(np.int64)

    def keep(self, lo: int, hi: int) -> tuple[dict[str, np.ndarray], bool, int]:
        """Make panels lo to hi - 1 part of the kept span; that span's
        arrays, its clean flag and the offset of panel lo's first node
        in its arrays."""
        first, end, kept, clean = self.span
        if not (first <= lo and hi <= end):
            start, stop = min(lo, first), max(hi, end)
            limit = max(LATTICE_NODES, self.size)
            if not kept or lo > end or hi < first or (stop - start) * self.order > limit:
                start, stop, parts = lo, hi, [self._terms(lo, hi)]
            else:
                parts = [self._terms(start, first), (kept["shift"], kept["factor"]),
                         self._terms(end, stop)]
            shift, factor = (np.concatenate(v) for v in zip(*parts))
            half = self.z_a * factor
            lower, upper = shift - half, shift + half
            kept = {"shift": shift, "factor": factor, "lower": lower, "upper": upper}
            clean = bool(np.all(lower <= upper) and np.all(np.isfinite(factor)))
            first, self.span = start, (start, stop, kept, clean)
        # From the locals: self.span may already be another thread's.
        return kept, clean, (lo - first) * self.order

    def _terms(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        if lo == hi:
            return np.empty(0), np.empty(0)
        return self.geometry.terms(self._h(lo, hi), self.rho, self.spec)

    def recall(self, gammas: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Positions of the gammas the last array did not hold; the
        others' coverages are put in ``out``.  A gamma's coverage does
        not depend on the array it came in, so this is exact."""
        if self.memo is None:
            return np.arange(gammas.size)
        known, values = self.memo
        bits = gammas.view(np.int64)
        at = np.minimum(np.searchsorted(known, bits), known.size - 1)
        hit = known[at] == bits
        out[hit] = values[at[hit]]
        return np.flatnonzero(~hit)

    def remember(self, gammas: np.ndarray, coverages: np.ndarray) -> None:
        bits = gammas.view(np.int64)
        order = np.argsort(bits)
        self.memo = (bits[order], coverages[order])


@lru_cache(maxsize=2)
def _prepared(geometry: kernel.RuleGeometry, rho: float, spec: PretestSpec,
              alpha: float) -> _Curve:
    """The prepared curves of the last two (rule, rho, spec, alpha)
    integrated, one per smoothed rule.

    Consecutive evaluations of one rule, such as the minimizer's grid
    and its golden-section steps, share one: each golden-section step
    reads its window as slices of the span the grid kept, and figure1's
    delta-method length curve reuses the span of its coverage curve.
    The key holds the rule's entry of kernel.RULES, not just its name.
    This is the only cache the integrals use: the lattice's one-panel
    rule is built once per prepared curve, and the closed-form PMS
    coverage needs none.
    """
    return _Curve(geometry, rho, spec, alpha)


def _windows(curve: _Curve, gammas, names: tuple[str, ...]):
    """The gammas in blocks, each with its windows of the curve's kept span.

    Yields (positions, gamma, zeta, mass, clean, *rows): the block's
    positions among the gammas, those gammas as a column, per gamma a
    row of its window's nodes as h - gamma and of their density mass
    (quadrature weight times phi(h - gamma)), the clean flag of the span
    the windows come from, and its window of each kept array ``names``
    names.  h - gamma is the window's offset from gamma plus the nodes'
    offsets in the window, so it keeps its precision however large
    gamma is.  A float is one block whose window is a slice of the
    arrays keep returned.  An array's gammas are taken in the order of
    their windows; a run of them whose windows fit in LATTICE_NODES
    shares one kept span, whose arrays keep returned and every block of
    the run reads, and a block holds at most BLOCK_NODES nodes (at least
    one window).  Nothing here reads the curve's span after keep
    returns, so another thread's keep cannot tear a block.
    """
    # Beyond 2^62 panels the windows stop (see first_panel); a gamma held
    # to twice that is 2^62 panels from its window, where every density is
    # 0 as it is for any farther gamma, and no h - gamma overflows.
    far = 2.0**63 * curve.width
    if isinstance(gammas, float):
        near = min(max(gammas, -far), far)
        first = curve.first_panel(near)
        kept, clean, at = curve.keep(first, first + curve.window)
        zeta = (first * curve.width - near) + curve.local
        yield (slice(None), gammas, zeta, curve.weights * gauss._density(zeta), clean,
               *(kept[n][None, at : at + curve.size] for n in names))
        return
    near = np.clip(gammas, -far, far)
    first = curve.first_panels(near)
    by_window = np.argsort(first, kind="stable")
    first_sorted = first[by_window]
    rows = max(1, BLOCK_NODES // curve.size)
    reach = max(LATTICE_NODES // curve.order, curve.window) - curve.window
    start = 0
    while start < gammas.size:
        lo = int(first_sorted[start])
        stop = int(np.searchsorted(first_sorted, lo + reach, side="right"))
        kept, clean, base = curve.keep(lo, int(first_sorted[stop - 1]) + curve.window)
        # Windows start on panel edges: every order-th sliding window.
        views = [sliding_window_view(kept[n], curve.size)[base::curve.order] for n in names]
        for at in range(start, stop, rows):
            positions = by_window[at : min(at + rows, stop)]
            gamma = gammas[positions, None]
            offsets = first[positions] - lo
            zeta = (first[positions, None] * curve.width - near[positions, None]) + curve.local
            yield (positions, gamma, zeta, curve.weights * gauss._density(zeta), clean,
                   *(view[offsets] for view in views))
        start = stop


def _row_sums(mass: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of mass * terms along each row, one dot product per row,
    so a row's sum does not depend on the other rows of its block."""
    return np.matmul(mass[:, None, :], terms[:, :, None])[:, 0, 0]


def _failure(gamma, ok: np.ndarray, problem) -> RuntimeError:
    """A RuntimeError naming the first gamma of a block whose row is not ok."""
    return RuntimeError(f"evaluation failed at gamma = {np.ravel(gamma)[np.argmin(ok)]}: "
                        f"{problem}")


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
    curve = _prepared(kernel.RULES[which], scenario.rho, spec, _check_alpha(alpha))
    if np.ndim(scenario.gamma) == 0:
        return float(_covered(curve, float(scenario.gamma), np.empty(1))[0])
    gammas = scenario.gamma
    out = np.empty(gammas.size)
    todo = curve.recall(gammas, out)
    out[todo] = _covered(curve, gammas[todo], np.empty(todo.size))
    curve.remember(gammas, out)
    return out


def _covered(curve: _Curve, gammas, out: np.ndarray) -> np.ndarray:
    """_coverage of a float or an array of gammas on a prepared curve,
    put in ``out``."""
    for positions, gamma, zeta, mass, clean, lower, upper in _windows(
            curve, gammas, ("lower", "upper")):
        if not clean:
            ok = np.all(lower <= upper, axis=1)
            if not ok.all():
                i = np.argmin(ok)
                nan = np.isnan(lower[i]).any() or np.isnan(upper[i]).any()
                raise _failure(gamma, ok, "NaN endpoint" if nan
                               else "lower endpoint exceeds upper endpoint")
        terms = gauss._interval(lower, upper, curve.rho * zeta, curve.sd)
        cp = curve.nominal + _row_sums(mass, terms - curve.nominal)
        ok = (0.0 <= cp) & (cp <= 1.0)
        if not ok.all():
            raise _failure(gamma, ok, f"coverage integrated to {cp[np.argmin(ok)]}, "
                                      "outside [0, 1]")
        out[positions] = cp
    return out


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
    |rho|, so the coverage is even in rho bit for bit, and with
    Phi_interval's reflection-exact formula, so it is even in gamma bit
    for bit.
    At rho = 0 it is identically 1 - alpha.
    """
    z_a = _z_alpha(_check_alpha(alpha))
    rho, d = abs(scenario.rho), spec.d
    sd = math.sqrt(1.0 - rho * rho)
    gamma = np.atleast_1d(np.asarray(scenario.gamma, dtype=float))
    beyond = np.array([d - gamma, d + gamma])
    # Both strip families, k = z_a and k = -z_a, in one call.
    h = np.array([beyond, beyond])
    k = np.zeros_like(h) + np.array([z_a, -z_a])[:, None, None]
    # Past |gamma| of about 8e306 at RHO_MAX the narrow interval's mean
    # and the corners' distances from their rays overflow to infinities,
    # whose limits are right.
    with np.errstate(over="ignore"):
        accept, narrow = gauss._interval(np.array([[-d], [-z_a]]), np.array([[d], [z_a]]),
                                         np.array([gamma, rho * gamma / sd]), 1.0)
        orthants = gauss._orthant(h, k, rho)
    strips = orthants[0] - orthants[1]
    return _like(scenario, np.clip(accept * narrow + (strips[0] + strips[1]), 0.0, 1.0))


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


def min_coverage(rho: float, spec: PretestSpec, alpha: float,
                 which: IntervalRule) -> MinCoverageReport:
    """Minimum over gamma >= 0 of the coverage curve for one rule.

    Coverage is even in gamma, so the search runs on [0, gamma_max]
    only, with gamma_max SEARCH_GAMMA_MAX or the cutoff plus the
    quadrature half width if that is larger.  A coarse uniform grid
    locates the basin and a golden-section pass refines the minimizer
    to GAMMA_TOL; the reported c_min never exceeds any evaluated
    coverage.  Far beyond the pretest cutoff the smoothing kernel is a
    normal tail away from zero, so by gamma_max the curve must have
    rejoined 1 - alpha; a minimum still sitting on the boundary, or a
    boundary value away from 1 - alpha, aborts the search rather than
    reporting a truncated minimum.
    """
    alpha = _check_alpha(alpha)
    which = IntervalRule(which)
    if which not in _COVERAGE_BY_RULE:
        raise ValueError(f"min_coverage: no coverage curve to minimize for rule {which!r}")
    gamma_max = max(SEARCH_GAMMA_MAX, spec.d + gauss.HALF_WIDTH)
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
            f"by gamma = {grid[n]} (got {vals[n]:.6f})"
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
    ratio = _z_alpha(alpha) / _z_level(c_min)
    curve = _prepared(kernel.RULES[which], scenario.rho, spec, alpha)
    gammas = float(scenario.gamma) if np.ndim(scenario.gamma) == 0 else scenario.gamma
    out = np.empty(np.size(gammas))
    for positions, gamma, _, mass, clean, factor in _windows(curve, gammas, ("factor",)):
        if not clean:
            ok = np.all(np.isfinite(factor), axis=1)
            if not ok.all():
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
    gamma they hit.  A grid with more points than can be built is a
    ValueError.
    """
    quantity = Quantity(quantity)
    alpha = _check_alpha(alpha)
    rho = Scenario(0.0, float(rho)).rho
    if not 0.0 < step <= gamma_max < math.inf:
        raise ValueError("curve: need 0 < step <= gamma_max < inf")
    try:
        # gamma_max / step overflows to inf, or numpy cannot index or allocate the grid.
        grid = np.arange(math.floor(gamma_max / step + 1e-9) + 1) * step
    except (OverflowError, MemoryError, ValueError):
        raise ValueError(f"curve: the grid up to gamma_max {gamma_max} by step {step} "
                         "has too many points to build") from None

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
