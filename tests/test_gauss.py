"""Tests for the normal primitives and the quadrature engine.

The CDF and quantile get genuinely independent oracles: a Taylor
series plus tail continued fraction for the CDF, and plain bisection
against that series for the quantile.  Neither shares a line of code
or an algorithm with the implementation under test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfc

from helpers import breakpoint_rule, integrate_against_shifted_normal
from smoothci import gauss, intervals, kernel
from smoothci.gauss import (
    Phi,
    Phi_interval,
    _z_alpha,
    phi,
    quadrature_rule,
    z_quantile,
)
from smoothci.kernel import IntervalRule, PretestSpec

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def cdf_oracle(x):
    """Reference normal CDF: Taylor series in the bulk, Laplace
    continued fraction in the tails.  The series is evaluated with the
    signed argument (it is odd), so each regime is used only where it
    keeps near-machine absolute accuracy."""
    dens = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if abs(x) <= 4.0:
        # Phi(x) = 1/2 + phi(x) * sum_{n>=0} x^(2n+1) / (1*3*...*(2n+1))
        term = x
        total = 0.0
        n = 0
        while abs(term) > 1e-20 * (1.0 + abs(total)):
            total += term
            n += 1
            term *= x * x / (2 * n + 1)
        return 0.5 + dens * total
    # tail mass via the continued fraction for Mills' ratio, evaluated
    # on the side actually requested so tiny results stay fully precise
    ax = abs(x)
    cf = 0.0
    for j in range(200, 0, -1):
        cf = j / (ax + cf)
    tail = dens / (ax + cf)
    return tail if x < 0.0 else 1.0 - tail


def quantile_oracle(p):
    if p > 0.5:
        return -quantile_oracle(1.0 - p)
    lo, hi = -40.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhiDensity:
    def test_at_zero(self):
        assert phi(0.0) == pytest.approx(0.3989422804014326779, abs=1e-16)

    def test_reference_value(self):
        # density at the 0.95 quantile, high-precision reference
        assert phi(1.6448536269514722) == pytest.approx(0.1031356403753713883, abs=1e-16)

    def test_even_exactly(self):
        for x in (0.3, 1.0, 2.7, 5.5):
            assert phi(x) == phi(-x)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert_allclose(phi(x), [phi(-1.0), phi(0.0), phi(2.0)], rtol=0)

    def test_far_tail_is_zero_without_a_warning(self):
        # Past about 1.3e154 the square overflows; the density is its limit.
        x = np.array([1e154, -1e200, np.finfo(float).max])
        assert np.array_equal(phi(x), np.zeros(3))
        assert phi(-1e300) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phi(math.inf)
        with pytest.raises(ValueError):
            phi(np.array([0.0, math.nan]))


class TestPhiCdf:
    def test_anchor_values(self):
        assert Phi(0.0) == 0.5
        assert Phi(math.inf) == 1.0
        assert Phi(-math.inf) == 0.0

    def test_quantile_anchor(self):
        assert Phi(1.6448536269514722) == pytest.approx(0.95, abs=1e-12)

    def test_against_series_oracle(self):
        for x in np.arange(-8.0, 8.01, 0.37):
            assert Phi(x) == pytest.approx(cdf_oracle(float(x)), rel=1e-13, abs=1e-15)

    def test_tail_relative_accuracy(self):
        for x in (-10.0, -20.0, -35.0):
            assert Phi(x) == pytest.approx(cdf_oracle(x), rel=1e-12)

    def test_monotone(self):
        grid = np.linspace(-12, 12, 401)
        vals = Phi(grid)
        assert np.all(np.diff(vals) >= 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Phi(math.nan)

    @given(st.floats(-30, 30))
    def test_symmetry(self, x):
        assert abs(Phi(x) + Phi(-x) - 1.0) <= 1e-15


class TestZQuantile:
    def test_half_is_exactly_zero(self):
        assert z_quantile(0.5) == 0.0

    def test_reference_values(self):
        assert z_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert z_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)

    def test_against_bisection_oracle(self):
        for p in (1e-8, 1e-4, 0.02, 0.3, 0.5, 0.8, 0.975, 0.9999, 1 - 1e-9):
            assert z_quantile(p) == pytest.approx(quantile_oracle(p), abs=1e-10)

    @pytest.mark.parametrize("k", range(3, 16))
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_near_half_follows_the_probit_series(self, k, sign):
        # z(1/2 + t) = w + w^3/6 + 7 w^5/120 + O(w^7) with w = sqrt(2 pi) t;
        # for |t| <= 1e-3 the dropped terms are below 0.1 ulp, and
        # p - 1/2 is exact, so this checks the relative accuracy of a
        # quantile that goes to 0.
        p = 0.5 + sign * 10.0**-k
        w = math.sqrt(2.0 * math.pi) * (p - 0.5)
        series = w + w**3 / 6.0 + 7.0 * w**5 / 120.0
        assert abs(z_quantile(p) - series) <= 4 * math.ulp(series)

    @pytest.mark.parametrize("p", [1e-302, 1e-305, 1e-310])
    def test_relative_accuracy_where_the_density_underflows(self, p):
        ref = quantile_oracle(p)
        assert abs(z_quantile(p) - ref) <= 1e-13 * abs(ref)

    def test_roundtrip_through_cdf(self):
        for p in (0.001, 0.1, 0.45, 0.6, 0.9, 0.99999):
            assert Phi(z_quantile(p)) == pytest.approx(p, abs=1e-10)

    @given(st.floats(0.5, 1 - 1e-12, exclude_min=True))
    @settings(max_examples=200)
    def test_antisymmetry_is_exact(self, p):
        # canonicalized to the lower half: the implementation computes
        # 1 - p exactly as written here, so this is float equality
        assert z_quantile(p) == -z_quantile(1.0 - p)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            z_quantile(bad)


class TestSaturatedErfc:
    def test_thresholds_are_where_scipy_saturates(self):
        # erfc is exactly 2.0 at ERFC_TWO and below, exactly 0.0 at
        # ERFC_ZERO and above, and not one double toward 0 of either.
        two, zero = gauss.ERFC_TWO, gauss.ERFC_ZERO
        assert erfc(two) == erfc(np.nextafter(two, -np.inf)) == erfc(-np.inf) == 2.0
        assert erfc(np.nextafter(two, 0.0)) < 2.0
        assert erfc(zero) == erfc(np.nextafter(zero, np.inf)) == erfc(np.inf) == 0.0
        assert erfc(np.nextafter(zero, 0.0)) > 0.0

    @pytest.mark.parametrize("share", [0.0, 0.25, 2.0])
    def test_saturated_values_are_erfc_bit_for_bit(self, monkeypatch, share):
        # Gated in, gated by the share, or gated out: the same bits as
        # erfc, NaN and infinities included.
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-10.0, 40.0, 4000), rng.normal(0.0, 3.0, 4000),
                            [gauss.ERFC_TWO, gauss.ERFC_ZERO, -np.inf, np.inf, np.nan,
                             np.nextafter(gauss.ERFC_TWO, 0.0),
                             np.nextafter(gauss.ERFC_ZERO, 0.0)]])
        monkeypatch.setattr(gauss, "SATURATED_SHARE", share)
        for arr in (x, x.reshape(1, -1), x[::3]):
            assert np.array_equal(gauss._erfc(arr), erfc(arr), equal_nan=True)

    def test_integral_blocks_at_high_rho_keep_their_bits(self, monkeypatch):
        # At rho 0.999 most of a window's conditional coverages are
        # exactly 0 or 1: the coverages with the saturated arguments set
        # are those of erfc on every argument.
        spec = PretestSpec.from_size(0.1)
        grid = intervals.Scenario(np.arange(0.0, 12.01, 0.05), 0.999)

        def coverages(share):
            monkeypatch.setattr(gauss, "SATURATED_SHARE", share)
            intervals._prepared.cache_clear()
            return [cov(grid, spec, 0.05)
                    for cov in (intervals.coverage_sd, intervals.coverage_sd_delta)]

        saturated = coverages(gauss.SATURATED_SHARE)
        plain = coverages(2.0)
        assert all(np.array_equal(a, b) for a, b in zip(saturated, plain))


class TestPhiInterval:
    def test_reference_value(self):
        assert Phi_interval(-1.96, 1.96, 0.0, 1.0) == pytest.approx(0.9500042097, abs=1e-10)

    def test_degenerate_interval(self):
        for a in (-3.0, 0.0, 1.7):
            assert Phi_interval(a, a, 0.4, 2.0) == 0.0

    def test_matches_cdf_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            l = rng.normal(0, 2)
            u = l + abs(rng.normal(0, 2))
            mu = rng.normal(0, 1)
            v = 0.1 + abs(rng.normal(0, 2))
            expected = cdf_oracle((u - mu) / math.sqrt(v)) - cdf_oracle((l - mu) / math.sqrt(v))
            assert Phi_interval(l, u, mu, v) == pytest.approx(expected, abs=5e-15)

    def test_array_broadcast(self):
        l = np.array([-1.0, 0.0])
        u = np.array([1.0, 2.0])
        out = Phi_interval(l, u, 0.0, 1.0)
        assert out.shape == (2,)
        assert out[0] == Phi_interval(-1.0, 1.0, 0.0, 1.0)

    def test_infinite_endpoints(self):
        # Whole line, empty at either end: no inf - inf is formed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Phi_interval(-math.inf, math.inf, 0.3, 2.0) == 1.0
            assert Phi_interval(math.inf, math.inf, 0.3, 2.0) == 0.0
            assert Phi_interval(-math.inf, -math.inf, 0.3, 2.0) == 0.0
            assert Phi_interval(-math.inf, 0.3, 0.3, 2.0) == 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Phi_interval(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Phi_interval(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Phi_interval(0.0, 1.0, 0.0, -2.0)
        with pytest.raises(ValueError):
            Phi_interval(math.nan, 1.0, 0.0, 1.0)

    @given(
        st.floats(-20, 20),
        st.floats(0, 30),
        st.floats(-10, 10),
        st.floats(1e-6, 50),
    )
    @settings(max_examples=300)
    def test_reflection_identity_bit_for_bit(self, l, width, mu, v):
        # the coverage functionals' evenness in rho rides on this
        # holding exactly, not merely to rounding
        u = l + width
        assert Phi_interval(l, u, mu, v) == Phi_interval(-u, -l, -mu, v)


class TestQuadratureRule:
    def test_default_rule_mass(self):
        rule = quadrature_rule()
        mass = float(np.dot(rule.weights, phi(rule.nodes)))
        lo, hi = rule.support
        assert mass == pytest.approx(Phi(hi) - Phi(lo), abs=1e-12)

    def test_nodes_inside_support_and_sorted(self):
        rule = breakpoint_rule((-0.33, 2.4))
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        lo, hi = rule.support
        assert rule.nodes[0] > lo and rule.nodes[-1] < hi

    def test_breakpoints_outside_support_ignored(self):
        plain = quadrature_rule()
        assert np.array_equal(breakpoint_rule((25.0,)).nodes, plain.nodes)
        assert np.array_equal(breakpoint_rule((25.0,)).weights, plain.weights)

    def test_close_breakpoints_merge_against_the_last_kept_edge(self):
        # tol = 8e-12 at half width 8.  Of x, x + 5e-12, x + 1e-11 the
        # middle one is within tol of x and goes; the last is within tol
        # of the middle one but not of x, and stays.
        x = 0.123
        assert np.array_equal(breakpoint_rule((x, x + 5e-12, x + 1e-11)).nodes,
                              breakpoint_rule((x, x + 1e-11)).nodes)
        # A breakpoint within tol of an edge goes, at either end too.
        edges = np.linspace(-8.0, 8.0, 41)
        edge = edges[7]
        for bp in (edge, edge + 1e-12, edge - 1e-12, 8.0 - 1e-13, -8.0 + 1e-13):
            assert breakpoint_rule((bp,)).nodes.size == 400
        # Two at once, as the PMS rule's jumps -d - gamma and d - gamma
        # at d = 2, gamma = 0.4 sit on edges 14 and 24: within tol both
        # merge into the edges, 2e-11 away both split a panel.
        for off, size in ((0.0, 400), (5e-13, 400), (-5e-13, 400), (1e-12, 400),
                          (-1e-12, 400), (2e-11, 420), (-2e-11, 420)):
            assert breakpoint_rule((edges[14] + off, edges[24] + off)).nodes.size == size, off

    def test_one_panel_rule_is_the_default_rule_translated(self):
        # The integrals' lattice lays one scaled Legendre panel end to
        # end; at rho 0 its panels are 16 / MIN_PANELS = 0.8 wide, and
        # panels -10 to 9 reproduce the composite rule of 20 panels on
        # [-8, 8].
        lattice = intervals._Curve(kernel.RULES[IntervalRule.SD], 0.0,
                                   PretestSpec.from_cutoff(1.645), _z_alpha(0.05))
        assert lattice.width == 0.8 and lattice.window == 21
        plain = breakpoint_rule(panels=20)
        assert np.allclose(lattice.weights[:200], plain.weights, rtol=0, atol=1e-15)
        assert np.allclose(lattice._h(-10, 10), plain.nodes, rtol=0, atol=1e-14)


class TestBvnOrthant:
    """P(X > h, Y <= k) against a quadrature of its own defining integral.

    Given X = x, Y is N(rho x, 1 - rho^2), so the orthant is the
    integral over x > h of phi(x) Phi((k - rho x) / s).  The reference
    integrates that on a 1280 x 20 rule split at h, against the normal
    density centered at 0 for the bulk and at h (with the density
    ratio folded into the integrand) for the tail checks.
    """

    @staticmethod
    def reference(h, k, rho, center=0.0):
        s = math.sqrt(1.0 - rho * rho)
        f = lambda x: ((x > h) * Phi((k - rho * x) / s)
                       * np.exp(center * (0.5 * center - x)))
        return integrate_against_shifted_normal(f, center, breakpoints=(h,),
                                                panels=1280, order=20)

    CORNERS = [(0.0, 0.0), (0.0, 1.3), (0.0, -1.3), (1.3, 0.0), (-1.3, 0.0),
               (0.7, 0.7), (-2.2, -2.2), (1.5, -0.4), (-0.8, 2.5), (-1.1, -2.9),
               (2.4, 1.9), (3.0, -3.0)]

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.9, -0.95, 0.999, -0.999])
    def test_against_quadrature(self, rho):
        h = np.array([c[0] for c in self.CORNERS])
        k = np.array([c[1] for c in self.CORNERS])
        got = gauss._orthant(h, k, rho)
        for (hc, kc), g in zip(self.CORNERS, got):
            assert g == pytest.approx(self.reference(hc, kc, rho), abs=1e-14), (hc, kc)
            assert gauss._orthant(np.array([hc]), np.array([kc]), rho)[0] == g

    def test_origin_is_the_diagonal_limit(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            want = 0.25 - math.asin(rho) / (2.0 * math.pi)
            assert gauss._orthant(np.array([0.0]), np.array([0.0]), rho)[0] == \
                pytest.approx(want, abs=1e-16)
            # The same corner inside a mixed array.
            assert gauss._orthant(np.array([0.0, 1.0]), np.array([0.0, 2.0]), rho)[0] == \
                pytest.approx(want, abs=1e-16)

    def test_far_tail_keeps_its_relative_accuracy(self):
        # Discordant corners far out: the mass is far below the 1e-16
        # rounding error of a difference of O(1) terms, which would
        # leave nothing of it.  What cancellation is left is between
        # terms of the size of Q(h), so some digits go, not all.
        for h, k, rho in ((5.0, 1.96, 0.9), (6.0, -1.0, 0.7), (4.5, 4.0, 0.99),
                          (6.0, 2.0, 0.95), (4.0, -2.0, 0.8)):
            want = self.reference(h, k, rho, center=h)
            assert 0.0 < want < 1e-9
            got = gauss._orthant(np.array([h]), np.array([k]), rho)[0]
            assert got == pytest.approx(want, rel=1e-5), (h, k, rho)

    def test_diagonal_formula_runs_only_on_the_diagonal(self, monkeypatch):
        h = np.array([0.0, 1.0, 2.0, -0.5])
        k = np.array([0.0, 2.0, 2.0, 0.5])
        want = gauss._orthant(h, k, 0.5)
        sizes = []
        diagonal = gauss._bvn_diagonal

        def counted(corners, rho):
            sizes.append(np.size(corners))
            return diagonal(corners, rho)

        monkeypatch.setattr(gauss, "_bvn_diagonal", counted)
        assert np.array_equal(gauss._orthant(h, k, 0.5), want)
        assert sizes == [2]

    def test_beyond_the_double_range_is_zero(self):
        got = gauss._orthant(np.array([3.94, 3.94]), np.array([1.96, -1.96]), 0.999)
        assert np.array_equal(got, [0.0, 0.0])


class TestIntegrateAgainstShiftedNormal:
    def test_total_mass(self):
        val = integrate_against_shifted_normal(lambda h: np.ones_like(h), 3.7)
        assert val == pytest.approx(1.0 - 2.0 * Phi(-gauss.HALF_WIDTH), abs=1e-14)

    def test_first_moment(self):
        assert integrate_against_shifted_normal(lambda h: h, 2.5) == pytest.approx(2.5, abs=1e-9)

    def test_second_moment(self):
        val = integrate_against_shifted_normal(lambda h: h * h, 0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_scalar_only_integrand(self):
        val = integrate_against_shifted_normal(lambda h: math.sin(h), 0.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_jump_integrand_with_breakpoints(self):
        d = 1.6448536269514722
        for g in (0.0, 0.8, 2.3):
            f = lambda h: (np.abs(h) <= d).astype(float)
            val = integrate_against_shifted_normal(f, g, breakpoints=(-d, d))
            assert val == pytest.approx(Phi(d - g) - Phi(-d - g), abs=1e-12)

    def test_breakpoints_beat_plain_panels_on_jumps(self):
        d = 1.6448536269514722
        f = lambda h: (np.abs(h) <= d).astype(float)
        exact = Phi(d - 0.9) - Phi(-d - 0.9)
        with_bp = integrate_against_shifted_normal(f, 0.9, breakpoints=(-d, d))
        without = integrate_against_shifted_normal(f, 0.9)
        assert abs(with_bp - exact) < 1e-12
        assert abs(with_bp - exact) < abs(without - exact)

    def test_nonfinite_integrand_is_an_error(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                integrate_against_shifted_normal(lambda h: 1.0 / (h - h[0]), 0.0)
        with pytest.raises(ValueError):
            integrate_against_shifted_normal(lambda h: h, math.inf)

    def test_doubling_panels_is_stable(self):
        for g in (0.0, 1.5, 4.0):
            a = integrate_against_shifted_normal(np.cos, g)
            b = integrate_against_shifted_normal(np.cos, g, panels=80)
            assert a == pytest.approx(b, abs=1e-12)
