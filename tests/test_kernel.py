"""Tests for the shrinkage kernels and the fitted-model containers.

Every closed form here has a dual route: the same quantity computed
by brute quadrature of its defining integral.  The tests pin the two
routes together so neither can drift.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smoothci.kernel as kernel_mod
from helpers import integrate_against_shifted_normal, kernel_moments, m_k
from smoothci.gauss import Phi, phi, z_quantile
from smoothci.kernel import (
    RULES,
    ConsistencyError,
    FittedModel,
    IntervalRule,
    PretestSpec,
    k,
    pms_estimate,
    q,
    r,
    r_delta,
    smoothed_estimate,
)

SPEC10 = PretestSpec.from_size(0.10)
SPEC05 = PretestSpec.from_size(0.05)


class TestPretestSpec:
    def test_from_size_roundtrip(self):
        assert SPEC10.alpha1 == 0.10
        assert SPEC10.d == pytest.approx(1.6448536269514722, abs=1e-12)

    def test_from_cutoff_roundtrip(self):
        spec = PretestSpec.from_cutoff(1.6448536269514722)
        assert spec.alpha1 == pytest.approx(0.10, abs=1e-12)

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            PretestSpec(d=1.96, alpha1=0.10)

    def test_direct_construction_when_consistent(self):
        spec = PretestSpec(d=z_quantile(0.975), alpha1=0.05)
        assert spec.d == SPEC05.d

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 2.0, math.nan])
    def test_size_domain(self, bad):
        with pytest.raises(ValueError):
            PretestSpec.from_size(bad)

    def test_cutoff_domain(self):
        with pytest.raises(ValueError):
            PretestSpec.from_cutoff(0.0)
        with pytest.raises(ValueError):
            PretestSpec.from_cutoff(-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            SPEC10.d = 2.0


class TestFittedModel:
    def test_holds_values(self):
        fm = FittedModel(theta_hat=1.0, gamma_hat=0.5, sigma=2.0,
                         v_theta=0.25, v_tau=0.5, rho=-0.3)
        assert fm.rho == -0.3

    def test_rho_allows_unit_magnitude(self):
        FittedModel(theta_hat=0.0, gamma_hat=0.0, sigma=1.0,
                    v_theta=1.0, v_tau=1.0, rho=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("sigma", 0.0), ("sigma", -1.0), ("v_theta", 0.0), ("v_tau", -0.5),
         ("rho", 1.0001), ("rho", math.nan), ("theta_hat", math.inf)],
    )
    def test_validation(self, field, value):
        kwargs = dict(theta_hat=0.0, gamma_hat=0.0, sigma=1.0,
                      v_theta=1.0, v_tau=1.0, rho=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            FittedModel(**kwargs)


def k_quadrature(g, spec):
    """Defining integral of the shrinkage kernel, evaluated blind."""
    d = spec.d
    return integrate_against_shifted_normal(
        lambda z: z * (np.abs(z) <= d), g, breakpoints=(-d, d)
    )


class TestKernelK:
    def test_reference_value(self):
        assert k(2.0, SPEC10) == pytest.approx(0.3481724300495582627, abs=1e-14)

    def test_matches_defining_integral(self):
        for g in np.arange(-6.0, 6.01, 0.5):
            assert k(float(g), SPEC10) == pytest.approx(
                k_quadrature(float(g), SPEC10), abs=1e-9
            )

    def test_odd(self):
        for g in (0.25, 1.0, 3.3, 7.0):
            assert k(g, SPEC10) == pytest.approx(-k(-g, SPEC10), abs=1e-12)
        assert k(0.0, SPEC10) == pytest.approx(0.0, abs=1e-16)

    def test_decays_far_from_cutoff(self):
        vals = [abs(k(g, SPEC10)) for g in (6.0, 8.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_vectorized_matches_scalar(self):
        g = np.array([-2.0, 0.0, 1.3])
        assert_allclose(k(g, SPEC10), [k(-2.0, SPEC10), 0.0, k(1.3, SPEC10)],
                        rtol=0, atol=0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(k(1.0, SPEC10), float)


class TestKernelQ:
    def test_value_at_zero(self):
        d = SPEC10.d
        expected = 2.0 * Phi(d) - 1.0 - 2.0 * d * phi(d)
        assert q(0.0, SPEC10) == pytest.approx(expected, abs=1e-15)
        assert q(0.0, SPEC10) == pytest.approx(0.5607139357212154, abs=1e-13)

    def test_is_derivative_of_k(self):
        eps = 1e-6
        for g in np.arange(-5.0, 5.01, 0.7):
            slope = (k(g + eps, SPEC10) - k(g - eps, SPEC10)) / (2 * eps)
            assert q(float(g), SPEC10) == pytest.approx(slope, abs=1e-7)

    def test_even(self):
        for g in (0.5, 1.7, 4.2):
            assert q(g, SPEC10) == pytest.approx(q(-g, SPEC10), abs=1e-15)

    def test_vectorized(self):
        g = np.array([0.0, 1.0])
        out = q(g, SPEC10)
        assert out.shape == (2,)
        assert out[1] == q(1.0, SPEC10)


class TestMk:
    def test_near_zero_at_origin(self):
        # integrand is odd when centered at zero
        assert m_k(0.0, SPEC10) == pytest.approx(0.0, abs=1e-12)

    def test_odd(self):
        for g in (0.5, 2.0, 6.0):
            assert m_k(g, SPEC10) == pytest.approx(-m_k(-g, SPEC10), abs=1e-12)

    def test_matches_direct_composition(self):
        for g in (0.0, 0.8, 2.5, 5.0):
            direct = integrate_against_shifted_normal(
                lambda z: k(z, SPEC10), g
            )
            assert m_k(g, SPEC10) == pytest.approx(direct, abs=1e-10)

    def test_decays(self):
        assert abs(m_k(10.0, SPEC10)) < 1e-4


class TestR:
    def test_one_at_rho_zero_exactly(self):
        for g in (0.0, 1.0, 4.7):
            assert r(g, 0.0, SPEC10) == 1.0

    def test_reference_value(self):
        assert r(0.0, 0.7, SPEC10) == pytest.approx(0.8783952962757328, abs=1e-12)

    def test_even_in_gamma(self):
        for g in (0.4, 1.9, 3.1):
            assert r(g, 0.7, SPEC10) == pytest.approx(r(-g, 0.7, SPEC10), abs=1e-13)

    def test_even_in_rho(self):
        assert r(1.2, 0.6, SPEC10) == r(1.2, -0.6, SPEC10)

    def test_matches_moment_composition(self):
        # rebuild r from raw quadrature moments of the kernel
        rho = 0.65
        for g in (0.0, 1.0, 2.2):
            mk = integrate_against_shifted_normal(lambda z: k(z, SPEC10), g)
            cross = integrate_against_shifted_normal(
                lambda z: k(z, SPEC10) * (z - g), g
            )
            second = integrate_against_shifted_normal(
                lambda z: k(z, SPEC10) ** 2, g
            )
            var = second - mk * mk
            expected = math.sqrt(1.0 - 2.0 * rho * rho * cross + rho * rho * var)
            assert r(g, rho, SPEC10) == pytest.approx(expected, abs=1e-9)

    def test_below_one_when_shrinking_helps(self):
        assert r(0.0, 0.7, SPEC10) < 1.0

    def test_tends_to_one_far_out(self):
        assert r(11.0, 0.7, SPEC10) == pytest.approx(1.0, abs=1e-6)

    def test_rho_cap(self):
        r(0.0, 0.999, SPEC10)
        with pytest.raises(ValueError):
            r(0.0, 0.9991, SPEC10)

    def test_negative_variance_is_consistency_error(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_moments",
                            lambda *a, **kw: (0.0, 1.0, 0.0))
        with pytest.raises(ConsistencyError):
            r(0.0, 0.9, SPEC10)

    def test_consistency_error_is_arithmetic(self):
        assert issubclass(ConsistencyError, ArithmeticError)

    def test_vector_and_scalar_agree_bit_for_bit(self):
        # build_interval and fit take the scalar path, the coverage
        # integrals and the oracle the vector one.
        for spec in (SPEC10, PretestSpec.from_cutoff(0.3)):
            d = spec.d
            g = np.concatenate([np.linspace(-12.0, 12.0, 97),
                                [d, -d, d + 1e-9, -d - 1e-9, np.nextafter(d, 0.0)]])
            for rho in (0.7, -0.999):
                vec = r(g, rho, spec)
                assert [float(v) for v in vec] == [r(float(x), rho, spec) for x in g]
                # A block of rows, as the coverage integrals pass it.
                block = r(g[:100].reshape(4, 25), rho, spec)
                assert block.shape == (4, 25)
                assert np.array_equal(block.ravel(), vec[:100])


class TestClosedFormMoments:
    """The closed-form moments inside r against their defining quadrature.

    The quadrature oracle uses a refined 160 x 20 rule.  The grid covers
    the cutoffs where Owen's formula for the bivariate normal rectangle
    switches branch: gamma = +-d exactly and 1e-9 to either side.
    """

    @pytest.mark.parametrize("d", (0.05, 0.3, 1.645, 1.96, 3.0, 6.0, 10.0))
    def test_moments_and_r_match_quadrature(self, d):
        spec = PretestSpec.from_cutoff(d)
        edges = [s * d + e for s in (-1.0, 1.0) for e in (-1e-9, 0.0, 1e-9)]
        g = np.concatenate([np.linspace(-20.0, 20.0, 161), edges])
        reference = kernel_moments(g, spec, panels=160, order=20)
        for got, want in zip(kernel_mod._moments(g, spec), reference):
            assert_allclose(got, want, rtol=0.0, atol=1e-12)
        _, cov, var = reference
        for rho in (0.4, 0.7, 0.999):
            expected = np.sqrt(1.0 - 2.0 * rho * rho * cov + rho * rho * var)
            assert_allclose(r(g, rho, spec), expected, rtol=0.0, atol=1e-12)


class TestRDelta:
    def test_reference_value(self):
        assert r_delta(0.0, 0.7, SPEC10) == pytest.approx(0.7775322505671882, abs=1e-12)

    def test_one_at_rho_zero(self):
        assert r_delta(2.0, 0.0, SPEC10) == 1.0

    def test_closed_form_in_q(self):
        for g in (0.0, 1.1, 3.0):
            for rho in (0.3, 0.8):
                qq = q(g, SPEC10)
                expected = math.sqrt(1.0 - 2.0 * rho * rho * qq + rho * rho * qq * qq)
                assert r_delta(g, rho, SPEC10) == pytest.approx(expected, abs=1e-14)

    def test_even_in_gamma_and_rho(self):
        assert r_delta(1.5, 0.6, SPEC10) == pytest.approx(r_delta(-1.5, 0.6, SPEC10), abs=1e-15)
        assert r_delta(1.5, 0.6, SPEC10) == r_delta(1.5, -0.6, SPEC10)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def pms_written_out(h, rho, spec):
    """The select-then-estimate shift and factor, one h at a time."""
    flat = np.asarray(h, dtype=float).ravel()
    accept = [abs(x) <= spec.d for x in flat]
    shift = [rho * x if a else 0.0 for x, a in zip(flat, accept)]
    factor = [math.sqrt(1.0 - rho * rho) if a else 1.0 for a in accept]
    return (np.reshape(shift, np.shape(h)), np.reshape(factor, np.shape(h)))


class TestRuleTerms:
    """Each rule's one-call terms against the public functions they fuse."""

    D = SPEC10.d
    POINTS = [0.0, D, -D, D + 1e-12, D - 1e-12, -D + 1e-12, -D - 1e-12, 40.0, -40.0]
    COMPOSITION = {
        IntervalRule.SD_DELTA: lambda h, rho, spec: (rho * k(h, spec), r_delta(h, rho, spec)),
        IntervalRule.SD: lambda h, rho, spec: (rho * k(h, spec), r(h, rho, spec)),
        IntervalRule.PMS: pms_written_out,
        IntervalRule.FULL_MODEL: lambda h, rho, spec: (np.zeros(np.shape(h)),
                                                       np.ones(np.shape(h))),
    }

    @pytest.mark.parametrize("rule", list(IntervalRule))
    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7, 0.999, -0.999])
    def test_equal_to_the_composition_bit_for_bit(self, rule, rho):
        grid = np.array(self.POINTS)
        for h in [*self.POINTS, grid, np.stack([grid, -grid[::-1], grid + 0.5])]:
            got = RULES[rule].terms(h, rho, SPEC10)
            want = self.COMPOSITION[rule](h, rho, SPEC10)
            assert len(got) == 2
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (rule, rho, h)

    def test_public_kernels_are_their_closed_forms_bit_for_bit(self):
        # k, q and r_delta share one evaluation of the normal values;
        # each must still be its own formula, in its own operation order.
        d = self.D
        g = np.concatenate([self.POINTS, np.linspace(-30.0, 30.0, 601)])
        kk = phi(d + g) - phi(d - g) + g * (Phi(d - g) - Phi(-d - g))
        qq = Phi(d - g) - Phi(-d - g) - d * (phi(d + g) + phi(d - g))
        assert same_bits(k(g, SPEC10), kk) and same_bits(q(g, SPEC10), qq)
        for rho in (0.7, -0.999):
            want = np.sqrt(1.0 - 2.0 * rho * rho * qq + rho * rho * qq * qq)
            assert same_bits(r_delta(g, rho, SPEC10), want)

    def test_scalar_terms_are_scalar(self):
        for rule in IntervalRule:
            shift, factor = RULES[rule].terms(0.3, 0.7, SPEC10)
            assert np.ndim(shift) == 0 and np.ndim(factor) == 0

    def test_sd_delta_keeps_the_factor_checks(self):
        terms = RULES[IntervalRule.SD_DELTA].terms
        with pytest.raises(ValueError, match="correlation magnitude"):
            terms(0.0, 0.9995, SPEC10)
        with pytest.raises(ValueError, match="finite"):
            terms(np.array([0.0, math.nan]), 0.7, SPEC10)


class TestEstimators:
    FM = FittedModel(theta_hat=2.0, gamma_hat=1.0, sigma=2.0,
                     v_theta=0.25, v_tau=1.0, rho=0.7)

    def test_pms_keep_branch(self):
        # |gamma_hat| <= d: subtract rho * sigma * sqrt(v_theta) * gamma_hat
        assert pms_estimate(self.FM, SPEC10) == pytest.approx(1.3, abs=1e-15)

    def test_pms_drop_branch(self):
        fm = FittedModel(theta_hat=2.0, gamma_hat=3.0, sigma=2.0,
                         v_theta=0.25, v_tau=1.0, rho=0.7)
        assert pms_estimate(fm, SPEC10) == 2.0

    def test_pms_jump_size_at_cutoff(self):
        d = SPEC10.d
        eps = 1e-10
        inside = FittedModel(theta_hat=0.0, gamma_hat=d - eps, sigma=1.0,
                             v_theta=1.0, v_tau=1.0, rho=0.7)
        outside = FittedModel(theta_hat=0.0, gamma_hat=d + eps, sigma=1.0,
                              v_theta=1.0, v_tau=1.0, rho=0.7)
        jump = abs(pms_estimate(outside, SPEC10) - pms_estimate(inside, SPEC10))
        assert jump == pytest.approx(0.7 * d, abs=1e-7)

    def test_smoothed_uses_kernel(self):
        expected = 2.0 - 0.7 * 2.0 * 0.5 * k(1.0, SPEC10)
        assert smoothed_estimate(self.FM, SPEC10) == pytest.approx(expected, abs=1e-15)

    def test_smoothed_is_continuous_at_cutoff(self):
        d = SPEC10.d
        eps = 1e-7
        vals = []
        for g in (d - eps, d + eps):
            fm = FittedModel(theta_hat=0.0, gamma_hat=g, sigma=1.0,
                             v_theta=1.0, v_tau=1.0, rho=0.7)
            vals.append(smoothed_estimate(fm, SPEC10))
        assert abs(vals[1] - vals[0]) < 1e-6

    def test_rho_zero_means_no_adjustment(self):
        fm = FittedModel(theta_hat=5.0, gamma_hat=1.0, sigma=3.0,
                         v_theta=2.0, v_tau=1.0, rho=0.0)
        assert smoothed_estimate(fm, SPEC10) == 5.0
        assert pms_estimate(fm, SPEC10) == 5.0
