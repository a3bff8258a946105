"""Tests for interval construction, coverage curves and the minimizer."""

import dataclasses
import functools
import math
import re
import sys
import threading

import numpy as np
import pytest

import smoothci.intervals as intervals_mod
from helpers import breakpoint_rule, h_quadrature
from smoothci import gauss, kernel
from smoothci.gauss import _z_alpha, _z_level, z_quantile
from smoothci.intervals import (
    CurveTable,
    IntervalReport,
    IntervalRule,
    MinCoverageReport,
    Quantity,
    Scenario,
    build_interval,
    coverage_pms,
    coverage_sd,
    coverage_sd_delta,
    curve,
    min_coverage,
    sel_sd,
    sel_sd_delta,
)
from smoothci.kernel import FittedModel, PretestSpec, r_delta

SPEC10 = PretestSpec.from_size(0.10)
ALPHA = 0.05
Z975 = 1.959963984540054


@pytest.fixture(scope="module")
def reports_rho07():
    """Minimum-coverage reports for all three data-dependent rules at rho = 0.7."""
    return {
        rule: min_coverage(0.7, SPEC10, ALPHA, rule)
        for rule in (IntervalRule.SD, IntervalRule.SD_DELTA, IntervalRule.PMS)
    }


class TestScenario:
    def test_rho_cap_boundary(self):
        Scenario(gamma=0.0, rho=0.999)
        Scenario(gamma=0.0, rho=-0.999)
        with pytest.raises(ValueError):
            Scenario(gamma=0.0, rho=0.9991)

    def test_gamma_must_be_finite(self):
        with pytest.raises(ValueError):
            Scenario(gamma=math.inf, rho=0.0)

    def test_gamma_array_is_a_locked_copy(self):
        grid = np.array([0.0, 0.5])
        sc = Scenario(gamma=grid, rho=0.0)
        grid[0] = 9.0
        assert sc.gamma[0] == 0.0
        with pytest.raises(ValueError):
            sc.gamma[0] = 1.0

    @pytest.mark.parametrize("bad", [[], [[0.0, 1.0]], [0.0, math.nan]])
    def test_gamma_array_must_be_finite_and_1d(self, bad):
        with pytest.raises(ValueError):
            Scenario(gamma=np.array(bad), rho=0.0)


class TestHugeGammas:
    """Every finite gamma is accepted, and far out every functional is
    its large-gamma limit: k = q = 0, r = r_delta = 1, the coverages
    1 - alpha and the lengths z_{1 - alpha/2} / z_{(1 + c_min)/2}."""

    @pytest.mark.parametrize("rho", [0.7, 0.999, -0.999])
    @pytest.mark.parametrize("gamma", [1e154, 1e300, 8e307, sys.float_info.max])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_and_array_take_the_limits(self, sign, gamma, rho):
        gamma *= sign
        ratio = _z_alpha(ALPHA) / _z_level(0.9)
        limits = [
            (lambda g: kernel.k(g, SPEC10), 0.0),
            (lambda g: kernel.q(g, SPEC10), 0.0),
            (lambda g: kernel.r(g, rho, SPEC10), 1.0),
            (lambda g: r_delta(g, rho, SPEC10), 1.0),
            *((lambda g, f=f: f(Scenario(g, rho), SPEC10, ALPHA), 1.0 - ALPHA)
              for f in (coverage_sd, coverage_sd_delta, coverage_pms)),
            *((lambda g, f=f: f(Scenario(g, rho), SPEC10, ALPHA, 0.9), ratio)
              for f in (sel_sd, sel_sd_delta)),
        ]
        for f, limit in limits:
            scalar, array = f(gamma), f(np.array([gamma]))
            assert isinstance(scalar, float) and array.shape == (1,)
            assert scalar == array[0] == limit, (f, scalar, array)
        fit = FittedModel(theta_hat=1.0, gamma_hat=gamma, sigma=2.0, v_theta=0.25, v_tau=1.0,
                          rho=rho)
        full = build_interval(fit, SPEC10, ALPHA, IntervalRule.FULL_MODEL)
        for rule in (IntervalRule.SD, IntervalRule.SD_DELTA, IntervalRule.PMS):
            got = build_interval(fit, SPEC10, ALPHA, rule)
            assert (got.lower, got.upper) == (full.lower, full.upper), rule


class TestIntervalReport:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalReport(lower=2.0, upper=0.0, rule=IntervalRule.SD, nominal_coverage=0.95)

    def test_nominal_coverage_open_interval(self):
        with pytest.raises(ValueError):
            IntervalReport(lower=0.0, upper=2.0, rule=IntervalRule.SD, nominal_coverage=1.0)

    def test_center_and_half_width_from_the_ends(self):
        rep = IntervalReport(lower=0.5, upper=2.0, rule=IntervalRule.SD, nominal_coverage=0.95)
        assert (rep.center, rep.half_width) == (1.25, 0.75)

    def test_half_width_overflow_refused(self):
        # Both ends are finite, +-1.019e308, but upper - lower overflows.
        fit = FittedModel(theta_hat=0.0, gamma_hat=0.0, sigma=5.2e307,
                          v_theta=1.0, v_tau=1.0, rho=0.5)
        with pytest.raises(ValueError, match="half_width must be finite"):
            build_interval(fit, SPEC10, ALPHA, IntervalRule.FULL_MODEL)


class TestBuildInterval:
    def test_full_model_reference(self):
        fit = FittedModel(theta_hat=0.0, gamma_hat=0.3, sigma=1.0,
                          v_theta=1.0, v_tau=1.0, rho=0.5)
        rep = build_interval(fit, SPEC10, ALPHA, IntervalRule.FULL_MODEL)
        assert rep.center == 0.0
        assert rep.half_width == pytest.approx(Z975, abs=1e-12)
        assert rep.nominal_coverage == 0.95

    def test_sd_delta_half_width(self):
        fit = FittedModel(theta_hat=0.0, gamma_hat=0.0, sigma=1.0,
                          v_theta=1.0, v_tau=1.0, rho=0.7)
        rep = build_interval(fit, SPEC10, ALPHA, IntervalRule.SD_DELTA)
        expected = z_quantile(0.975) * r_delta(0.0, 0.7, SPEC10)
        assert rep.half_width == pytest.approx(expected, abs=1e-14)

    def test_pms_widths_track_the_pretest(self):
        accept = FittedModel(theta_hat=1.0, gamma_hat=1.0, sigma=2.0,
                             v_theta=0.25, v_tau=1.0, rho=0.6)
        reject = FittedModel(theta_hat=1.0, gamma_hat=3.0, sigma=2.0,
                             v_theta=0.25, v_tau=1.0, rho=0.6)
        rep_a = build_interval(accept, SPEC10, ALPHA, IntervalRule.PMS)
        rep_r = build_interval(reject, SPEC10, ALPHA, IntervalRule.PMS)
        assert rep_a.half_width == pytest.approx(Z975 * 1.0 * math.sqrt(1 - 0.36), abs=1e-12)
        assert rep_r.half_width == pytest.approx(Z975 * 1.0, abs=1e-12)
        assert rep_r.center == 1.0

    def test_rho_zero_collapses_every_rule(self):
        # with an uncorrelated design all four intervals are one and
        # the same, endpoint for endpoint
        fit = FittedModel(theta_hat=3.25, gamma_hat=0.8, sigma=1.7,
                          v_theta=0.4, v_tau=2.0, rho=0.0)
        base = build_interval(fit, SPEC10, ALPHA, IntervalRule.FULL_MODEL)
        for rule in IntervalRule:
            rep = build_interval(fit, SPEC10, ALPHA, rule)
            assert rep.lower == base.lower
            assert rep.upper == base.upper

    def test_scale_enters_linearly(self):
        fit1 = FittedModel(theta_hat=0.0, gamma_hat=1.0, sigma=1.0,
                           v_theta=1.0, v_tau=1.0, rho=0.7)
        fit3 = FittedModel(theta_hat=0.0, gamma_hat=1.0, sigma=3.0,
                           v_theta=1.0, v_tau=1.0, rho=0.7)
        r1 = build_interval(fit1, SPEC10, ALPHA, IntervalRule.SD)
        r3 = build_interval(fit3, SPEC10, ALPHA, IntervalRule.SD)
        assert r3.half_width == pytest.approx(3.0 * r1.half_width, rel=1e-14)
        assert r3.center == pytest.approx(3.0 * r1.center, rel=1e-14)

    def test_alpha_validation(self):
        fit = FittedModel(theta_hat=0.0, gamma_hat=0.0, sigma=1.0,
                          v_theta=1.0, v_tau=1.0, rho=0.0)
        with pytest.raises(ValueError):
            build_interval(fit, SPEC10, 0.0, IntervalRule.SD)
        with pytest.raises(ValueError):
            build_interval(fit, SPEC10, 1.0, IntervalRule.SD)

    @pytest.mark.parametrize("rule", list(IntervalRule))
    def test_calls_the_rule_terms_once(self, monkeypatch, rule):
        # Center and half width come from one call: a second one would
        # evaluate r twice for the exact-SD rule.
        fit = FittedModel(theta_hat=0.4, gamma_hat=1.2, sigma=1.3,
                          v_theta=0.8, v_tau=1.0, rho=0.7)
        want = build_interval(fit, SPEC10, ALPHA, rule)
        geometry = kernel.RULES[rule]
        calls = []

        def counted(h, rho, spec):
            calls.append(h)
            return geometry.terms(h, rho, spec)

        monkeypatch.setitem(kernel.RULES, rule, dataclasses.replace(geometry, terms=counted))
        assert build_interval(fit, SPEC10, ALPHA, rule) == want
        assert calls == [1.2]

    def test_accepts_rule_by_value(self):
        fit = FittedModel(theta_hat=0.0, gamma_hat=0.0, sigma=1.0,
                          v_theta=1.0, v_tau=1.0, rho=0.0)
        rep = build_interval(fit, SPEC10, ALPHA, "full_model")
        assert rep.rule is IntervalRule.FULL_MODEL


class TestCoverage:
    def test_nominal_at_rho_zero(self):
        for g in (0.0, 1.0, 5.0):
            sc = Scenario(g, 0.0)
            assert coverage_sd(sc, SPEC10, ALPHA) == pytest.approx(0.95, abs=1e-9)
            assert coverage_sd_delta(sc, SPEC10, ALPHA) == pytest.approx(0.95, abs=1e-9)
            assert coverage_pms(sc, SPEC10, ALPHA) == pytest.approx(0.95, abs=1e-9)

    def test_frozen_regression_values(self):
        # anchors for the three curves at gamma = 1, rho = 0.7
        sc = Scenario(1.0, 0.7)
        assert coverage_sd(sc, SPEC10, ALPHA) == pytest.approx(0.9512410367339932, abs=1e-12)
        assert coverage_sd_delta(sc, SPEC10, ALPHA) == pytest.approx(0.9394940995155782, abs=1e-12)
        assert coverage_pms(sc, SPEC10, ALPHA) == pytest.approx(0.8533353035432942, abs=1e-12)

    def test_even_in_rho_bit_for_bit(self):
        for fn in (coverage_sd, coverage_sd_delta, coverage_pms):
            assert fn(Scenario(1.3, 0.6), SPEC10, ALPHA) == fn(Scenario(1.3, -0.6), SPEC10, ALPHA)

    def test_even_in_gamma(self):
        for fn in (coverage_sd, coverage_sd_delta, coverage_pms):
            a = fn(Scenario(1.7, 0.7), SPEC10, ALPHA)
            b = fn(Scenario(-1.7, 0.7), SPEC10, ALPHA)
            assert a == pytest.approx(b, abs=1e-13)

    def test_rejoins_nominal_far_out(self):
        sc = Scenario(10.0, 0.7)
        assert coverage_sd_delta(sc, SPEC10, ALPHA) == pytest.approx(0.9500000021495221, abs=1e-12)
        assert coverage_sd(sc, SPEC10, ALPHA) == pytest.approx(0.95, abs=1e-5)
        assert coverage_pms(sc, SPEC10, ALPHA) == pytest.approx(0.95, abs=1e-6)

    def test_pms_dips_lowest(self):
        sc = Scenario(1.8, 0.7)
        assert coverage_pms(sc, SPEC10, ALPHA) < coverage_sd_delta(sc, SPEC10, ALPHA)
        assert coverage_sd_delta(sc, SPEC10, ALPHA) < 0.95

    def test_integrals_take_no_quadrature_knobs(self):
        sc = Scenario(1.0, 0.7)
        for fn, args in ((coverage_sd, ()), (coverage_sd_delta, ()),
                         (intervals_mod._scaled_length, (0.9, IntervalRule.SD))):
            for knob in ("panels", "order"):
                with pytest.raises(TypeError):
                    fn(sc, SPEC10, ALPHA, *args, **{knob: 80})
        with pytest.raises(TypeError):
            min_coverage(0.7, SPEC10, ALPHA, IntervalRule.SD, grid_step=0.1)


def _edge_gammas(spec: PretestSpec, index: int) -> list[float]:
    """Gammas that put the breakpoint d - gamma on uniform panel edge
    ``index`` of the default rule, within 1e-12 of it, and just past
    the merge distance."""
    edge = np.linspace(-gauss.HALF_WIDTH, gauss.HALF_WIDTH, gauss.DEFAULT_PANELS + 1)[index]
    on = spec.d - edge
    while spec.d - on != edge:
        on = np.nextafter(on, np.inf if spec.d - on > edge else -np.inf)
    return [float(on + off) for off in (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-11, -2e-11)]


def _width(rule: IntervalRule, rho: float, spec: PretestSpec) -> float:
    """Panel width W of the rule's h-lattice."""
    return intervals_mod._prepared(kernel.RULES[rule], rho, spec, _z_alpha(ALPHA)).width


def _panel_edge_gammas(spec: PretestSpec, rule: IntervalRule, rho: float,
                       near: float) -> list[float]:
    """The least gamma whose window starts on the rule's lattice panel
    edge nearest ``near`` (the start (gamma - 8) / W reaches the edge's
    index there), and the gammas one ulp either side of it."""
    width = _width(rule, rho, spec)
    edge = round((near - gauss.HALF_WIDTH) / width)
    g = gauss.HALF_WIDTH + edge * width
    while (g - gauss.HALF_WIDTH) / width >= edge:
        g = np.nextafter(g, -np.inf)
    while (g - gauss.HALF_WIDTH) / width < edge:
        g = np.nextafter(g, np.inf)
    gammas = [float(np.nextafter(g, -np.inf)), float(g), float(np.nextafter(g, np.inf))]
    assert [math.floor((x - gauss.HALF_WIDTH) / width) - edge for x in gammas] == [-1, 0, 0]
    return gammas


class TestBatchedGammas:
    """An array of gammas gives the per-gamma scalar values bit for bit."""

    SPECS = (
        SPEC10,
        PretestSpec.from_cutoff(2.0),
        # Both breakpoints outside the support at small gamma, one inside
        # from gamma 2 on.
        PretestSpec.from_cutoff(10.0),
    )

    @staticmethod
    def gammas(spec: PretestSpec) -> np.ndarray:
        # 145 points span three blocks; the edge cases sit in the middle.
        # They put a window's start on a panel edge of the SD and SD_DELTA
        # lattices of rho 0.7 and -0.999, or one ulp of gamma either side,
        # where a scalar call's slice of the kept span moves by a whole
        # panel.
        grid = list(np.arange(121) * 0.1)
        grid[60:60] = [g for rule in (IntervalRule.SD, IntervalRule.SD_DELTA)
                       for rho in (0.7, -0.999) for near in (1.9, 2.3)
                       for g in _panel_edge_gammas(spec, rule, rho, near)]
        # Windows of at least MIN_PANELS + 1 panels of 10 nodes.
        window = (intervals_mod.MIN_PANELS + 1) * gauss.DEFAULT_ORDER
        assert len(grid) > 2 * (intervals_mod.BLOCK_NODES // window)
        return np.array(grid)

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.999])
    @pytest.mark.parametrize("spec", SPECS, ids=["size0.1", "d2", "d10"])
    def test_coverage(self, spec, rho):
        grid = self.gammas(spec)
        for cov in (coverage_sd, coverage_sd_delta, coverage_pms):
            batched = cov(Scenario(grid, rho), spec, ALPHA)
            assert isinstance(batched, np.ndarray) and batched.shape == grid.shape
            scalar = [cov(Scenario(float(g), rho), spec, ALPHA) for g in grid]
            assert [float(v) for v in batched] == scalar, cov.__name__

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.999])
    @pytest.mark.parametrize("spec", SPECS, ids=["size0.1", "d2", "d10"])
    def test_length(self, spec, rho):
        grid = self.gammas(spec)
        for sel in (sel_sd, sel_sd_delta):
            batched = sel(Scenario(grid, rho), spec, ALPHA, 0.9)
            scalar = [sel(Scenario(float(g), rho), spec, ALPHA, 0.9) for g in grid]
            assert [float(v) for v in batched] == scalar, sel.__name__

    def test_edge_gammas_reach_the_merge(self):
        # At d = 2 both breakpoints +-d - gamma of a rule split where
        # the PMS rule jumps sit near panel edges of the default rule
        # for these gammas: within 1e-12 they merge into the edges and
        # leave the plain rule, 2e-11 away both split a panel.
        # h_quadrature's rules meet such near-edge breakpoints too.
        spec = PretestSpec.from_cutoff(2.0)
        plain = gauss.DEFAULT_PANELS * gauss.DEFAULT_ORDER
        *near, past, before = _edge_gammas(spec, 24)
        for g, size in [(0.4, plain)] + [(g, plain) for g in near] + [
            (past, plain + 20), (before, plain + 20)
        ]:
            rule = breakpoint_rule([-spec.d - g, spec.d - g])
            assert rule.nodes.size == size, g

    @pytest.mark.parametrize("rho", [0.7, 0.999])
    def test_gammas_far_apart_take_several_lattice_passes(self, rho):
        # Windows that do not fit in one lattice span are integrated in
        # passes of their own; values still equal the scalar calls, and
        # the order of the gammas does not matter.
        span = intervals_mod.LATTICE_NODES // gauss.DEFAULT_ORDER
        for fn, rule, args in ((coverage_sd_delta, IntervalRule.SD_DELTA, ()),
                               (sel_sd, IntervalRule.SD, (0.9,))):
            width = _width(rule, rho, SPEC10)
            grid = np.array([3.0 * span * width, 0.0, 0.5, 1.5 * span * width, 0.25])
            batched = fn(Scenario(grid, rho), SPEC10, ALPHA, *args)
            scalar = [fn(Scenario(float(g), rho), SPEC10, ALPHA, *args) for g in grid]
            assert [float(v) for v in batched] == scalar, fn.__name__


class TestHighRhoAccuracy:
    """Up to RHO_MAX every coverage and length is within 1e-12 of an
    independent quadrature.

    helpers.h_quadrature integrates each rule of kernel.RULES on one
    refined composite rule in h (80 panels per unit, 20 nodes each,
    panel edges at h = +-d), with none of the package's lattice: the
    SD and SD_DELTA coverages and lengths and the closed-form PMS
    coverage are checked against it, gamma = +-d included.
    """

    SPECS = (SPEC10, PretestSpec.from_cutoff(2.0), PretestSpec.from_cutoff(10.0))

    @staticmethod
    def gammas(spec):
        return np.concatenate([np.arange(0.0, 12.01, 0.25), [spec.d, -spec.d]])

    @pytest.mark.parametrize("rho", [0.7, 0.99, 0.999, -0.999])
    @pytest.mark.parametrize("spec", SPECS, ids=["size0.1", "d2", "d10"])
    def test_sd_rules_against_a_refined_lattice(self, spec, rho):
        gammas = self.gammas(spec)
        grid = Scenario(gammas, rho)
        for rule, cov in ((IntervalRule.SD, coverage_sd),
                          (IntervalRule.SD_DELTA, coverage_sd_delta)):
            want_cp, want_sel = h_quadrature(gammas, rho, spec, ALPHA, rule, c_min=0.9)
            assert np.max(np.abs(cov(grid, spec, ALPHA) - want_cp)) < 1e-12, rule
            got_sel = intervals_mod._scaled_length(grid, spec, ALPHA, 0.9, rule)
            assert np.max(np.abs(got_sel - want_sel)) < 1e-12, rule

    @pytest.mark.parametrize("rho", [0.7, 0.99, 0.999, -0.999])
    @pytest.mark.parametrize("spec", SPECS, ids=["size0.1", "d2", "d10"])
    def test_pms_closed_form_against_breakpoint_quadrature(self, spec, rho):
        gammas = self.gammas(spec)
        got = coverage_pms(Scenario(gammas, rho), spec, ALPHA)
        want, _ = h_quadrature(gammas, rho, spec, ALPHA, IntervalRule.PMS)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_pms_underflow_is_exactly_zero(self):
        # rho = 0.999, d = 6: near gamma = 2 the true coverage is below
        # the smallest double, far below the rounding error of
        # (2 Phi(z) - 1) minus a rectangle probability.
        cp = coverage_pms(Scenario(np.array([1.9, 2.0, 2.1]), 0.999),
                          PretestSpec.from_cutoff(6.0), ALPHA)
        assert np.all(cp == 0.0)


def _lattice_errors(alpha: float, d: float, rho: float, gammas: np.ndarray):
    """Largest errors of the four lattice functionals against h_quadrature.

    Returns the coverages' largest absolute error and the lengths'
    largest error in E[factor], z_{(1 + c_min)/2} / z_{1 - alpha/2} times
    that of the length, relative to max(1, E[factor]), one pair per
    smoothed rule.  The reference is taken one gamma at a time, on
    [gamma - 8, gamma + 8] as the lattice's window is: beyond it a factor
    of up to about d / sqrt(2 pi) meets the 1.2e-15 of normal mass the
    windows leave out by design.
    """
    spec = PretestSpec.from_cutoff(d)
    ratio = _z_alpha(alpha) / _z_level(0.9)
    out = {}
    for rule in (IntervalRule.SD, IntervalRule.SD_DELTA):
        want = np.array([np.concatenate(h_quadrature([g], rho, spec, alpha, rule, c_min=0.9))
                         for g in gammas])
        grid = Scenario(gammas, rho)
        cp = intervals_mod._coverage(grid, spec, alpha, rule)
        mean = intervals_mod._scaled_length(grid, spec, alpha, 0.9, rule) / ratio
        out[rule] = (np.max(np.abs(cp - want[:, 0])),
                     np.max(np.abs(mean - want[:, 1] / ratio) / np.maximum(1.0, mean)))
    return out


class TestLatticeSizing:
    """The h-lattice is sized by the speed of the interval's ends
    (intervals._panel_width): every coverage within 5e-15 of h_quadrature
    and every length's E[factor] within 5e-15 of it relative to
    max(1, E[factor]) over alpha in [1e-8, 0.5], d in [0.05, 37] and
    |rho| up to RHO_MAX.  The exact-SD length at cutoffs of 10 and more
    reads kernel.r's own rounding, which grows with d^2 (its moments
    subtract terms of size gamma^2), not the lattice's: there it is held
    to 1e-13.
    """

    @staticmethod
    def check(alpha, d, rho, gammas):
        errors = _lattice_errors(alpha, d, rho, gammas)
        for rule, (cp, length) in errors.items():
            assert cp <= 5e-15, (rule, cp)
            bound = 1e-13 if rule is IntervalRule.SD and d >= 10.0 else 5e-15
            assert length <= bound, (rule, length)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(16):
            alpha = float(10.0 ** rng.uniform(-8.0, math.log10(0.5)))
            d = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(37.0)))
            rho = float((1.0 - 10.0 ** rng.uniform(-3.0, 0.0)) * rng.choice([-1.0, 1.0]))
            self.check(alpha, d, rho, np.linspace(0.0, d + 8.0, 5))

    #: ROADMAP item 3's corners, where the lattice sized by the speed of
    #: the center alone read 7.2e-11, 1.3e-11, 4.1e-12 and 1.4e-15 in the
    #: SD_DELTA coverage, and the worst cases of a 200-case sweep like
    #: test_seeded_sweep's (seed 7, 9 gammas a case).
    CORNERS = [
        (1e-14, 30.0, 0.9), (1e-14, 10.0, 0.99), (1e-8, 10.0, 0.9), (0.05, 1.645, 0.999),
        # SD coverage 2.3e-15, SD_DELTA coverage 2.1e-15, SD_DELTA
        # length 3.0e-15 and SD length 2.8e-14 (kernel.r's rounding).
        (2.046309044722924e-06, 16.047125855671794, -0.9989629590313018),
        (0.0007037887165440086, 30.66216431865985, 0.9900449286366264),
        (2.931531314609945e-07, 21.022053799981297, 0.9955168369011151),
        (5.091453332633373e-08, 34.15092583870454, -0.9977598894298655),
    ]

    @pytest.mark.parametrize("alpha, d, rho", CORNERS)
    def test_fixed_cases(self, alpha, d, rho):
        self.check(alpha, d, rho, np.linspace(0.0, d + 8.0, 9))

    @pytest.mark.parametrize("rule", [IntervalRule.SD, IntervalRule.SD_DELTA])
    @pytest.mark.parametrize("d", [0.05, 1.645, 10.0, 37.0])
    @pytest.mark.parametrize("rho", [0.3, 0.7, 0.99, 0.999])
    def test_rho_and_minus_rho_share_a_lattice(self, rule, d, rho):
        # The sizing pass reads |rho|, so the mirrored curves' windows
        # are the same panels and their coverages are even in rho bit
        # for bit.
        spec = PretestSpec.from_cutoff(d)
        plus = intervals_mod._prepared(kernel.RULES[rule], rho, spec, _z_alpha(ALPHA))
        minus = intervals_mod._prepared(kernel.RULES[rule], -rho, spec, _z_alpha(ALPHA))
        assert (plus.width, plus.window) == (minus.width, minus.window)
        assert np.array_equal(plus.weights, minus.weights)

    def test_non_finite_terms_do_not_size_the_lattice(self, monkeypatch):
        # A factor that turns NaN past h = 8.4 leaves the panels as the
        # finite terms size them: at rho 0.99 the ends move fastest near
        # h = d, and the support gets more than MIN_PANELS panels.
        geometry = kernel.RULES[IntervalRule.SD_DELTA]

        def terms(h, rho, spec):
            shift, factor = geometry.terms(h, rho, spec)
            return shift, np.where(h > 8.4, math.nan, factor)

        z_a = _z_alpha(ALPHA)
        want = intervals_mod._panel_width(geometry, 0.99, SPEC10, z_a)
        assert want[1] > intervals_mod.MIN_PANELS + 1
        bad = dataclasses.replace(geometry, terms=terms)
        assert intervals_mod._panel_width(bad, 0.99, SPEC10, z_a) == want


class TestMinCoverage:
    def test_flat_curve_at_rho_zero(self):
        rep = min_coverage(0.0, SPEC10, ALPHA, IntervalRule.SD_DELTA)
        assert rep.c_min == pytest.approx(0.95, abs=1e-9)
        assert rep.argmin_gamma == 0.0

    def test_ordering_of_rules(self, reports_rho07):
        c_pms = reports_rho07[IntervalRule.PMS].c_min
        c_delta = reports_rho07[IntervalRule.SD_DELTA].c_min
        c_sd = reports_rho07[IntervalRule.SD].c_min
        assert c_pms < c_delta < c_sd < 0.95

    def test_never_exceeds_an_evaluated_coverage(self, reports_rho07):
        rep = reports_rho07[IntervalRule.SD_DELTA]
        for g in np.arange(0.0, 12.01, 0.6):
            cp = coverage_sd_delta(Scenario(float(g), 0.7), SPEC10, ALPHA)
            assert rep.c_min <= cp + 1e-15

    def test_argmin_is_a_local_minimum(self, reports_rho07):
        rep = reports_rho07[IntervalRule.SD]
        g = rep.argmin_gamma
        c = coverage_sd(Scenario(g, 0.7), SPEC10, ALPHA)
        assert c == pytest.approx(rep.c_min, abs=intervals_mod.REFINEMENT_TOL)
        for dg in (-0.01, 0.01):
            assert coverage_sd(Scenario(g + dg, 0.7), SPEC10, ALPHA) >= rep.c_min

    @staticmethod
    def patch_sd_delta_factor(monkeypatch, scale):
        """Make the SD_DELTA rule's factor ``scale(h) * factor``."""
        terms = kernel.RULES[IntervalRule.SD_DELTA].terms

        def scaled(h, rho, spec):
            shift, factor = terms(h, rho, spec)
            return shift, scale(h) * factor

        monkeypatch.setitem(kernel.RULES, IntervalRule.SD_DELTA,
                            kernel.RuleGeometry(terms=scaled, smoothed=True))

    def test_boundary_minimum_is_an_error(self, monkeypatch):
        # A factor that keeps shrinking as |h| grows: the coverage is
        # still falling at the end of the search.
        self.patch_sd_delta_factor(monkeypatch, lambda h: 1.0 / (1.0 + 0.05 * np.abs(h)))
        with pytest.raises(RuntimeError, match="still decreasing at the search boundary "
                                               "gamma = 12.0"):
            min_coverage(0.7, SPEC10, ALPHA, IntervalRule.SD_DELTA)

    def test_unflattened_boundary_is_an_error(self, monkeypatch):
        # A factor 10 % short everywhere: the coverage levels off at
        # 2 Phi(0.9 z) - 1, not at 1 - alpha.
        self.patch_sd_delta_factor(monkeypatch, lambda h: 0.9)
        with pytest.raises(RuntimeError, match=r"has not rejoined .* \(got 0\.922263\)$"):
            min_coverage(0.7, SPEC10, ALPHA, IntervalRule.SD_DELTA)

    def test_default_search_reaches_past_a_large_cutoff(self):
        # with d = 9 the curve is still away from 1 - alpha at gamma = 12;
        # the reference value is a scipy quad evaluation at the argmin
        rep = min_coverage(0.7, PretestSpec.from_cutoff(9.0), ALPHA, IntervalRule.SD_DELTA)
        assert rep.c_min == pytest.approx(0.0052528991147374055, abs=1e-9)
        assert rep.argmin_gamma == pytest.approx(4.904, abs=1e-3)

    @pytest.mark.parametrize("rule", [IntervalRule.SD, IntervalRule.SD_DELTA,
                                      IntervalRule.PMS])
    def test_golden_section_values_equal_fresh_scalar_calls(self, monkeypatch, rule):
        # The refinement reads its windows as slices of the span the
        # grid's prepared curve kept; a scalar call on an empty cache
        # prepares its own, with the same bits.
        seen = []
        cov = intervals_mod._COVERAGE_BY_RULE[rule]

        def recording(scenario, spec, alpha):
            value = cov(scenario, spec, alpha)
            if np.ndim(scenario.gamma) == 0:
                seen.append((scenario.gamma, value))
            return value

        monkeypatch.setitem(intervals_mod._COVERAGE_BY_RULE, rule, recording)
        rep = min_coverage(0.999, SPEC10, ALPHA, rule)
        assert len(seen) > 10 and rep.c_min == min(v for _, v in seen)
        for g, v in seen:
            intervals_mod._prepared.cache_clear()
            assert cov(Scenario(g, 0.999), SPEC10, ALPHA) == v, g

    #: (c_min, argmin_gamma) as the implementation that evaluated every
    #: golden-section step through Phi_interval and bvn_orthant found
    #: them, in hex: the prepared curves' slices must give the same bits.
    #: The SD and SD_DELTA c_min that the lattice sized by the speed of
    #: the interval's ends moved, by at most 4.4e-16 (argmins unchanged),
    #: are those of that lattice, each within 9e-16 of h_quadrature.
    #: The "size0.1" rows take d = z_quantile(0.95) = 0x1.a515209676abbp+0.
    PINNED = {
        (0.37, "size0.1", "sd"): ("0x1.e491b23273929p-1", "0x1.2174b5cfe0b1cp+1"),
        (0.37, "size0.1", "sd_delta"): ("0x1.e5346d31af353p-1", "0x1.f67bbed584201p+0"),
        (0.37, "size0.1", "pms"): ("0x1.d93dd68c66c8ap-1", "0x1.cfeb8156b87cdp+0"),
        (0.7, "size0.1", "sd"): ("0x1.dc64f92a9678cp-1", "0x1.22ef6d1feb52dp+1"),
        (0.7, "size0.1", "sd_delta"): ("0x1.d8b4eb42590b5p-1", "0x1.dfd0f00a5c452p+0"),
        (0.7, "size0.1", "pms"): ("0x1.941881ab70618p-1", "0x1.d0ad6cfedb7e5p+0"),
        (-0.999, "size0.1", "sd"): ("0x1.c0317cf75fad5p-1", "0x1.f15609f7c746dp+0"),
        (-0.999, "size0.1", "sd_delta"): ("0x1.8afda228da982p-1", "0x1.29db526702e08p+0"),
        (-0.999, "size0.1", "pms"): ("0x1.e7ea8e1cfbf93p-5", "0x1.cac4b23316ab8p-3"),
        (0.7, "d2", "sd"): ("0x1.d46e1e241bc16p-1", "0x1.1eba4902d8442p+1"),
        (0.7, "d2", "sd_delta"): ("0x1.cec5d23d5f477p-1", "0x1.e6251a7be83adp+0"),
        (0.7, "d2", "pms"): ("0x1.7322ba72a834dp-1", "0x1.fe8b92c766b5fp+0"),
    }

    @pytest.mark.parametrize("rho, pretest, rule", list(PINNED))
    def test_pinned_bits(self, rho, pretest, rule):
        spec = SPEC10 if pretest == "size0.1" else PretestSpec.from_cutoff(2.0)
        rep = min_coverage(rho, spec, ALPHA, IntervalRule(rule))
        c_min, argmin = self.PINNED[rho, pretest, rule]
        assert rep.c_min == float.fromhex(c_min)
        assert rep.argmin_gamma == float.fromhex(argmin)

    def test_full_model_has_no_curve(self):
        with pytest.raises(ValueError):
            min_coverage(0.7, SPEC10, ALPHA, IntervalRule.FULL_MODEL)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MinCoverageReport(c_min=1.0, argmin_gamma=0.0)
        with pytest.raises(ValueError):
            MinCoverageReport(c_min=-1e-300, argmin_gamma=0.0)
        # a minimum coverage that underflows to zero is a result
        MinCoverageReport(c_min=0.0, argmin_gamma=3.0)
        with pytest.raises(ValueError):
            MinCoverageReport(c_min=0.9, argmin_gamma=-1.0)


class TestScaledExpectedLength:
    def test_unity_at_rho_zero(self):
        rep = min_coverage(0.0, SPEC10, ALPHA, IntervalRule.SD)
        val = sel_sd(Scenario(0.0, 0.0), SPEC10, ALPHA, rep.c_min)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_shorter_than_full_model_at_origin(self, reports_rho07):
        c_min = reports_rho07[IntervalRule.SD_DELTA].c_min
        val = sel_sd_delta(Scenario(0.0, 0.7), SPEC10, ALPHA, c_min)
        assert 0.9 < val < 1.0

    def test_exceeds_one_somewhere(self, reports_rho07):
        c_min = reports_rho07[IntervalRule.SD_DELTA].c_min
        vals = [sel_sd_delta(Scenario(g, 0.7), SPEC10, ALPHA, c_min)
                for g in np.arange(0.0, 6.01, 0.25)]
        assert max(vals) > 1.0

    def test_flattens_far_out(self, reports_rho07):
        c_min = reports_rho07[IntervalRule.SD_DELTA].c_min
        a = sel_sd_delta(Scenario(10.0, 0.7), SPEC10, ALPHA, c_min)
        b = sel_sd_delta(Scenario(12.0, 0.7), SPEC10, ALPHA, c_min)
        assert a == pytest.approx(b, abs=1e-4)

    def test_c_min_domain(self):
        sc = Scenario(0.0, 0.7)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sel_sd(sc, SPEC10, ALPHA, bad)

    def test_sd_route_agrees_with_delta_route_at_rho_zero(self):
        rep = min_coverage(0.0, SPEC10, ALPHA, IntervalRule.SD)
        a = sel_sd(Scenario(1.0, 0.0), SPEC10, ALPHA, rep.c_min)
        b = sel_sd_delta(Scenario(1.0, 0.0), SPEC10, ALPHA, rep.c_min)
        assert a == b


class TestCurve:
    def test_rho_zero_coverage_curve_is_constant(self):
        tab = curve(Quantity.CP, 0.0, SPEC10, ALPHA, gamma_max=3.0, step=0.5)
        assert np.all(np.abs(tab.values - 0.95) < 1e-9)
        assert tab.gammas[0] == 0.0
        assert tab.gammas[-1] == 3.0

    def test_halving_the_step_reproduces_shared_points(self):
        coarse = curve(Quantity.CP_DELTA, 0.7, SPEC10, ALPHA, gamma_max=2.0, step=0.5)
        fine = curve(Quantity.CP_DELTA, 0.7, SPEC10, ALPHA, gamma_max=2.0, step=0.25)
        assert np.array_equal(coarse.gammas, fine.gammas[::2])
        assert np.array_equal(coarse.values, fine.values[::2])

    def test_grid_is_index_times_step(self):
        tab = curve(Quantity.CP_DELTA, 0.7, SPEC10, ALPHA, gamma_max=0.7, step=0.1)
        assert tab.gammas.size == 8
        assert np.array_equal(tab.gammas, np.arange(8) * 0.1)

    def test_sel_normalizer_computed_once_and_matches(self, reports_rho07):
        tab = curve(Quantity.SEL_DELTA, 0.7, SPEC10, ALPHA, gamma_max=1.0, step=0.5)
        c_min = reports_rho07[IntervalRule.SD_DELTA].c_min
        for g, v in zip(tab.gammas, tab.values):
            direct = sel_sd_delta(Scenario(float(g), 0.7), SPEC10, ALPHA, c_min)
            assert v == direct

    def test_metadata_carried_through(self):
        tab = curve("cp_pms", 0.4, SPEC10, ALPHA, gamma_max=1.0, step=0.5)
        assert tab.quantity is Quantity.CP_PMS

    def test_fine_pms_curve_builds_no_rule_and_no_prepared_curve(self):
        # The PMS coverage is closed form: a fine curve prepares no
        # lattice, so it scales no quadrature rule either.
        misses = intervals_mod._prepared.cache_info().misses
        tab = curve(Quantity.CP_PMS, 0.7, SPEC10, ALPHA, gamma_max=3.0, step=0.001)
        assert intervals_mod._prepared.cache_info().misses == misses
        for g, v in zip(tab.gammas[::97], tab.values[::97]):
            assert v == coverage_pms(Scenario(float(g), 0.7), SPEC10, ALPHA)

    def test_rho_validated_before_any_evaluation(self):
        with pytest.raises(ValueError):
            curve(Quantity.CP, 1.2, SPEC10, ALPHA, gamma_max=1.0, step=0.5)

    def test_step_validation(self):
        for gamma_max, step in ((1.0, 0.0), (0.1, 0.5), (1.0, math.nan), (math.nan, 0.5),
                                (math.inf, 0.5), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="curve: need"):
                curve(Quantity.CP_PMS, 0.5, SPEC10, ALPHA, gamma_max=gamma_max, step=step)
        # None of these allocates: 1e18 points is more than the address
        # space holds, 1e305 more than an int64 counts, and 1e310
        # overflows to inf before any array is built.
        for gamma_max, step in ((1e9, 1e-9), (1e300, 1e-5), (1e300, 1e-10)):
            with pytest.raises(ValueError, match=re.escape(
                    f"curve: the grid up to gamma_max {gamma_max} by step {step} has too many")):
                curve(Quantity.CP_PMS, 0.5, SPEC10, ALPHA, gamma_max=gamma_max, step=step)

    @pytest.mark.parametrize("quantity, message", [
        (Quantity.CP_DELTA, "NaN endpoint"),
        (Quantity.SEL_DELTA, "length integrand produced a non-finite value"),
    ])
    def test_nan_factor_names_its_gamma(self, monkeypatch, quantity, message):
        # The factor turns NaN on the lattice panels past h = 8.8.  At
        # rho = 0.7 the panels are 0.8 wide and a window spans 21 of
        # them from floor((gamma - 8) / 0.8): gammas 0 and 0.625 stop at
        # 8.8, and 1.25 is the first gamma of the curve whose window
        # reaches past it.  The length curve's normalizer is stubbed, so
        # the minimizer, whose grid reaches it too, does not meet it
        # first.
        bad = 1.25
        geometry = kernel.RULES[IntervalRule.SD_DELTA]

        def nan_factor(h, rho, spec):
            shift, factor = geometry.terms(h, rho, spec)
            factor = np.array(factor, dtype=float)
            factor[h > 8.8] = math.nan
            return shift, factor

        monkeypatch.setitem(kernel.RULES, IntervalRule.SD_DELTA,
                            dataclasses.replace(geometry, terms=nan_factor))
        monkeypatch.setattr(intervals_mod, "min_coverage",
                            lambda *args: MinCoverageReport(c_min=0.9, argmin_gamma=1.0))
        with pytest.raises(RuntimeError, match=f"gamma = {bad}: .*{message}"):
            curve(quantity, 0.7, SPEC10, ALPHA, gamma_max=2.0, step=0.625)


class TestPreparedCurve:
    """A scalar call reads its window as slices of the prepared curve's
    kept span; an array call skips the gammas the last array held."""

    @pytest.mark.parametrize("d", [0.05, 1.645, 2.0, 10.0, 30.0])
    def test_lattice_rule_is_the_scaled_legendre_rule_bit_for_bit(self, d):
        # A panel of width W holds the Gauss-Legendre rule on [-1, 1]
        # scaled by W / 2, with no other rounding, at every width the
        # correlation and the cutoff choose.
        x, w = np.polynomial.legendre.leggauss(gauss.DEFAULT_ORDER)
        spec = PretestSpec.from_cutoff(d)
        for rho in np.linspace(-0.999, 0.999, 41):
            lattice = intervals_mod._Curve(kernel.RULES[IntervalRule.SD], float(rho), spec,
                                           _z_alpha(ALPHA))
            half = 0.5 * lattice.width
            assert np.array_equal(lattice.nodes, half * x), rho
            panels = lattice.weights.reshape(lattice.window, gauss.DEFAULT_ORDER)
            assert np.array_equal(panels, np.broadcast_to(half * w, panels.shape)), rho

    @staticmethod
    def bad_factor(monkeypatch, value):
        # The factor turns ``value`` on the lattice panels past h = 8.8:
        # at rho = 0.7 a window spans 21 panels 0.8 wide from
        # floor((gamma - 8) / 0.8), so gamma 1 reaches them and 0.3
        # does not.  A value of -0.5 jumps the ends at h = 8.8, which
        # narrows the panels, and the same gammas hold.
        geometry = kernel.RULES[IntervalRule.SD_DELTA]

        def terms(h, rho, spec):
            shift, factor = geometry.terms(h, rho, spec)
            factor = np.array(factor, dtype=float)
            factor[h > 8.8] = value
            return shift, factor

        monkeypatch.setitem(kernel.RULES, IntervalRule.SD_DELTA,
                            dataclasses.replace(geometry, terms=terms))

    @pytest.mark.parametrize("value, message", [
        (math.nan, "NaN endpoint"),
        (-0.5, "lower endpoint exceeds upper endpoint"),
    ])
    def test_scalar_window_with_a_bad_factor_names_its_gamma(self, monkeypatch, value, message):
        self.bad_factor(monkeypatch, value)
        fine = coverage_sd_delta(Scenario(0.3, 0.7), SPEC10, ALPHA)
        assert 0.0 < fine < 1.0
        with pytest.raises(RuntimeError, match=f"gamma = 1.0: {message}"):
            coverage_sd_delta(Scenario(1.0, 0.7), SPEC10, ALPHA)
        # The kept span now holds the bad nodes; a window that does not
        # reach them still integrates.
        assert coverage_sd_delta(Scenario(0.3, 0.7), SPEC10, ALPHA) == fine

    def test_scalar_length_window_with_a_nan_factor_names_its_gamma(self, monkeypatch):
        self.bad_factor(monkeypatch, math.nan)
        assert sel_sd_delta(Scenario(0.3, 0.7), SPEC10, ALPHA, 0.9) > 0.0
        with pytest.raises(RuntimeError, match="gamma = 1.0: length integrand produced "
                                               "a non-finite value"):
            sel_sd_delta(Scenario(1.0, 0.7), SPEC10, ALPHA, 0.9)

    @pytest.mark.parametrize("value, message", [
        (math.nan, "NaN endpoint"),
        (-0.5, "lower endpoint exceeds upper endpoint"),
    ])
    def test_array_with_a_bad_factor_names_its_first_gamma_in_window_order(
            self, monkeypatch, value, message):
        # 1.0 and 1.8 reach the bad panels; 1.0's window comes first.
        self.bad_factor(monkeypatch, value)
        grid = np.array([1.8, 1.0, 0.3])
        with pytest.raises(RuntimeError, match=f"gamma = 1.0: {message}"):
            coverage_sd_delta(Scenario(grid, 0.7), SPEC10, ALPHA)
        if math.isnan(value):
            with pytest.raises(RuntimeError, match="gamma = 1.0: length integrand produced "
                                                   "a non-finite value"):
                sel_sd_delta(Scenario(grid, 0.7), SPEC10, ALPHA, 0.9)

    def test_array_whose_windows_miss_the_bad_nodes_of_the_kept_span_integrates(
            self, monkeypatch):
        self.bad_factor(monkeypatch, math.nan)
        intervals_mod._prepared.cache_clear()
        with pytest.raises(RuntimeError, match="gamma = 1.0: NaN endpoint"):
            coverage_sd_delta(Scenario(1.0, 0.7), SPEC10, ALPHA)
        got = coverage_sd_delta(Scenario(np.array([0.0, 0.3]), 0.7), SPEC10, ALPHA)
        intervals_mod._prepared.cache_clear()
        fresh = [coverage_sd_delta(Scenario(g, 0.7), SPEC10, ALPHA) for g in (0.0, 0.3)]
        assert [float(v) for v in got] == fresh

    def test_array_evaluates_only_the_gammas_the_last_array_lacked(self, monkeypatch):
        intervals_mod._prepared.cache_clear()
        first = np.arange(201) * 0.05
        later = np.arange(241) * 0.05
        coverage_sd_delta(Scenario(first, 0.7), SPEC10, ALPHA)
        rows = []
        core = gauss._interval

        def counted(lower, upper, mu, s):
            rows.append(mu.shape[0])
            return core(lower, upper, mu, s)

        with monkeypatch.context() as patch:
            patch.setattr(gauss, "_interval", counted)
            got = coverage_sd_delta(Scenario(later, 0.7), SPEC10, ALPHA)
        assert sum(rows) == later.size - first.size
        intervals_mod._prepared.cache_clear()
        assert np.array_equal(got, coverage_sd_delta(Scenario(later, 0.7), SPEC10, ALPHA))

    def test_pms_takes_both_strip_families_in_one_orthant_call(self, monkeypatch):
        grid = np.array([0.0, 1.0, 2.5])
        want = coverage_pms(Scenario(grid, 0.7), SPEC10, ALPHA)
        calls = []
        orthant = gauss._orthant

        def counted(h, k, rho):
            calls.append(h.shape)
            return orthant(h, k, rho)

        monkeypatch.setattr(gauss, "_orthant", counted)
        assert np.array_equal(coverage_pms(Scenario(grid, 0.7), SPEC10, ALPHA), want)
        assert coverage_pms(Scenario(1.0, 0.7), SPEC10, ALPHA) == want[1]
        assert calls == [(2, 2, 3), (2, 2, 1)]

    def test_threads_sharing_a_prepared_curve_get_single_thread_bits(self):
        # At rho 0.999 a window holds 2,780 nodes, so windows near gamma
        # 0.3 and 5000 lie apart and every call replaces the kept span of
        # the one prepared curve all four threads share.  A switch
        # interval of 1 us lets a thread be cut off anywhere in a call.
        intervals_mod._prepared.cache_clear()
        calls = []
        for near, far in [(np.array([0.25, 0.3, 0.35]), np.array([4999.9, 5000.0, 5000.1])),
                          (0.3, 5000.0)]:
            for gamma in (near, far):
                scenario = Scenario(gamma, 0.999)
                calls.append(functools.partial(coverage_sd_delta, scenario, SPEC10, ALPHA))
                calls.append(functools.partial(sel_sd_delta, scenario, SPEC10, ALPHA, 0.9))
        want = [call() for call in calls]
        wrong, failures = [], []

        def work(shift):
            for _ in range(40):
                for i in range(len(calls)):
                    at = (i + shift) % len(calls)
                    try:
                        if not np.array_equal(calls[at](), want[at]):
                            wrong.append(at)
                    except Exception as exc:
                        failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(2 * t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]
        assert not wrong, len(wrong)

    @pytest.mark.parametrize("rule", [IntervalRule.SD, IntervalRule.SD_DELTA])
    def test_prepared_curves_are_keyed_by_the_critical_value(self, rule):
        # The public functions check alpha and turn it into z_a; their
        # bits are the integrals' on the curve _prepared keys by z_a.
        coverage = intervals_mod._COVERAGE_BY_RULE[rule]
        length = intervals_mod._SEL_BY_RULE[rule]
        grid = np.array([0.0, 0.7, 2.5, 9.0])
        intervals_mod._prepared.cache_clear()
        cp = coverage(Scenario(grid, 0.7), SPEC10, ALPHA)
        sel = length(Scenario(grid, 0.7), SPEC10, ALPHA, 0.9)
        intervals_mod._prepared.cache_clear()
        curve = intervals_mod._prepared(kernel.RULES[rule], 0.7, SPEC10, _z_alpha(ALPHA))
        assert np.array_equal(intervals_mod._covered(curve, grid, np.empty(grid.size)), cp)
        factor = np.empty(grid.size)
        for positions, _, _, mass, _, f in intervals_mod._windows(curve, grid, ("factor",)):
            factor[positions] = 1.0 + intervals_mod._row_sums(mass, f - 1.0)
        assert np.array_equal(_z_alpha(ALPHA) / _z_level(0.9) * factor, sel)
        # 1 - alpha/2 rounds to one double for both alphas, so the second
        # alpha's calls find the first one's curve.
        alphas = (ALPHA, float(np.nextafter(ALPHA, 1.0)))
        assert alphas[0] != alphas[1] and _z_alpha(alphas[0]) == _z_alpha(alphas[1])
        intervals_mod._prepared.cache_clear()
        values = []
        for alpha in alphas:
            values.append((coverage(Scenario(1.3, 0.7), SPEC10, alpha),
                           length(Scenario(1.3, 0.7), SPEC10, alpha, 0.9)))
        info = intervals_mod._prepared.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert values[0] == values[1]

    def test_a_window_next_to_the_kept_span_adds_only_its_panels(self, monkeypatch):
        intervals_mod._prepared.cache_clear()
        geometry = kernel.RULES[IntervalRule.SD_DELTA]
        evaluated = []

        def terms(h, rho, spec):
            evaluated.append(h.size)
            return geometry.terms(h, rho, spec)

        monkeypatch.setitem(kernel.RULES, IntervalRule.SD_DELTA,
                            dataclasses.replace(geometry, terms=terms))
        # The lattice is sized on the 40 points 0, 0.25, ..., d + 8; its
        # windows are 21 panels of 10 nodes, 0.8 wide, and gamma 1 and 2
        # start at panels -9 and -8, so the second adds one panel.
        values = [coverage_sd_delta(Scenario(g, 0.7), SPEC10, ALPHA) for g in (1.0, 2.0)]
        assert evaluated == [40, 210, 10]
        intervals_mod._prepared.cache_clear()
        assert coverage_sd_delta(Scenario(2.0, 0.7), SPEC10, ALPHA) == values[1]


class TestCurveTable:
    def test_arrays_locked(self):
        tab = curve(Quantity.CP, 0.0, SPEC10, ALPHA, gamma_max=1.0, step=0.5)
        with pytest.raises(ValueError):
            tab.values[0] = 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CurveTable(gammas=np.array([0.0, 1.0]), values=np.array([0.5]), quantity=Quantity.CP)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CurveTable(gammas=np.array([1.0, 0.5]), values=np.array([0.5, 0.5]),
                       quantity=Quantity.CP)
        with pytest.raises(ValueError):
            CurveTable(gammas=np.array([-1.0, 0.5]), values=np.array([0.5, 0.5]),
                       quantity=Quantity.CP)

    def test_range_validation_by_quantity(self):
        with pytest.raises(ValueError):
            CurveTable(gammas=np.array([0.0, 1.0]), values=np.array([0.5, 1.5]),
                       quantity=Quantity.CP)
        with pytest.raises(ValueError):
            CurveTable(gammas=np.array([0.0, 1.0]), values=np.array([1.0, 0.0]),
                       quantity=Quantity.SEL)
