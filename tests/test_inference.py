import dataclasses
import math
from statistics import NormalDist

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucompare.designs import hypergeometric_weights
from ucompare.estimators import VarianceEstimate
from ucompare.inference import (
    PLUGIN_ASYMPTOTIC,
    UNBIASED,
    normal_cdf,
    normal_quantile,
)
from ucompare.inference import TestResult as ErrorDifferenceResult
from ucompare.inference import test_error_difference as run_error_difference_test

Z_975 = 1.959963984540054


def variance_estimate(v_hat, kappa1, theta2, n=10, m=2):
    return VarianceEstimate(
        v_hat=v_hat,
        kappa_hats=(kappa1,) + (0.0,) * (m - 1),
        theta2_hat=theta2,
        weights=hypergeometric_weights(n, m),
    )


def studentized(delta_hat, u_n, alpha=0.05):
    """The test with u(n) = u_n on both routes.

    v_hat is u_n, and with n = 4, m = 2 the plug-in m^2 (u_n - 0) / n is u_n
    exactly, so a nonpositive u_n leaves no positive variance to use.
    """
    variance = variance_estimate(u_n, u_n, 0.0, n=4, m=2)
    return run_error_difference_test(delta_hat, variance, alpha=alpha)


class TestNormalCdf:
    def test_reference_values(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert normal_cdf(2.0) == pytest.approx(0.9772498680518208, abs=1e-15)
        assert normal_cdf(-1.2815515655446004) == pytest.approx(0.1, abs=1e-15)

    def test_matches_stdlib_normal(self):
        # The stdlib reference computes 0.5 * (1 + erf), which loses a few
        # digits of relative accuracy deep in the left tail, hence the looser
        # relative tolerance there.
        reference = NormalDist()
        for x in [-6.0, -3.3, -1.0, -0.1, 0.0, 0.7, 2.4, 5.5]:
            assert normal_cdf(x) == pytest.approx(reference.cdf(x), rel=1e-9, abs=1e-300)

    def test_deep_tail_keeps_relative_accuracy(self):
        # 1 - cdf(-x) would lose everything here; erfc does not.
        assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestNormalQuantile:
    def test_reference_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-12)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)
        assert normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-12)
        assert normal_quantile(1e-4) == pytest.approx(-3.719016485455709, abs=1e-11)

    def test_matches_stdlib_normal(self):
        reference = NormalDist()
        grid = [1e-6, 1e-3, 0.02, 0.024, 0.025, 0.3, 0.5, 0.8, 0.975, 1 - 1e-6]
        for p in grid:
            assert normal_quantile(p) == pytest.approx(
                reference.inv_cdf(p), rel=1e-11, abs=1e-12
            )

    def test_roundtrip_through_cdf(self):
        grid = [1e-8, 1e-6, 0.0242, 0.0243, 0.2, 0.5, 0.77, 0.9757, 1 - 1e-8]
        for p in grid:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_roundtrip_property(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_antisymmetry(self, p):
        # Tolerance reflects the cdf's grain near 1 divided by the density:
        # quantiles on the right edge cannot be sharper than that.
        assert normal_quantile(1.0 - p) == pytest.approx(-normal_quantile(p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_domain_enforced(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestStudentize:
    def test_value(self):
        assert studentized(-0.14, 0.01).statistic == pytest.approx(-1.4, abs=1e-15)

    @pytest.mark.parametrize("u_n", [0.0, -1e-12, -3.0])
    def test_nonpositive_variance_rejected(self, u_n):
        # Neither route has a positive variance: nothing is studentized.
        result = studentized(0.5, u_n)
        assert result.degenerate
        assert result.u_n == u_n
        assert result.statistic is None


class TestConfidenceInterval:
    def test_hand_value(self):
        result = studentized(-0.14, 0.01, 0.05)
        assert result.ci_low == pytest.approx(-0.14 - 0.1 * Z_975, abs=1e-12)
        assert result.ci_high == pytest.approx(-0.14 + 0.1 * Z_975, abs=1e-12)

    def test_negative_variance_rejected(self):
        result = studentized(0.3, -1e-9, 0.05)
        assert result.ci_low is None and result.ci_high is None

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            studentized(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            studentized(0.0, 1.0, 1.0)

    def test_smaller_alpha_widens(self):
        narrow = studentized(0.0, 1.0, 0.10)
        wide = studentized(0.0, 1.0, 0.01)
        assert wide.ci_low < narrow.ci_low < narrow.ci_high < wide.ci_high


class TestTwoSidedTest:
    def test_zero_estimate_has_p_one(self):
        result = studentized(0.0, 0.04)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.reject

    def test_textbook_example(self):
        result = studentized(-0.14, 0.01, alpha=0.05)
        assert result.statistic == pytest.approx(-1.4, abs=1e-15)
        assert result.p_value == pytest.approx(0.1615133184675423, abs=1e-12)
        assert result.ci_low == pytest.approx(-0.3359963984540054, abs=1e-12)
        assert result.ci_high == pytest.approx(0.0559963984540054, abs=1e-12)
        assert not result.reject

    def test_rejection_is_nonstrict_around_threshold(self):
        just_over = studentized(math.sqrt(0.01) * (Z_975 + 1e-9), 0.01)
        just_under = studentized(math.sqrt(0.01) * (Z_975 - 1e-9), 0.01)
        assert just_over.reject
        assert not just_under.reject
        assert just_over.p_value == pytest.approx(0.05, abs=1e-8)

    def test_p_monotone_in_statistic_magnitude(self):
        previous = 2.0
        for z in (0.0, 0.5, 1.0, 2.0, 4.0):
            p = studentized(z, 1.0).p_value
            assert p < previous
            previous = p

    def test_degenerate_result_has_no_decision(self):
        result = studentized(0.2, 0.0)
        assert result.degenerate
        assert result.u_n == 0.0
        assert result.delta_hat == 0.2
        assert result.statistic is None
        assert result.p_value is None
        assert result.ci_low is None and result.ci_high is None
        assert result.reject is None

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            studentized(0.0, 1.0, alpha=0.0)

    @settings(max_examples=120, deadline=None)
    @given(
        delta=st.floats(min_value=-1.0, max_value=1.0),
        u_n=st.floats(min_value=1e-4, max_value=1.0),
        alpha=st.floats(min_value=0.01, max_value=0.2),
    )
    def test_duality_with_interval(self, delta, u_n, alpha):
        result = studentized(delta, u_n, alpha)
        assume(abs(result.p_value - alpha) > 1e-9)
        excludes_zero = not (result.ci_low <= 0.0 <= result.ci_high)
        assert result.reject == excludes_zero


class TestDerivedVerdict:
    def test_reject_follows_alpha_across_p_value(self):
        result = studentized(-0.14, 0.01, alpha=0.05)
        assert result.p_value == pytest.approx(0.1615, abs=1e-4)
        assert not result.reject
        assert dataclasses.replace(result, alpha=0.2).reject
        assert dataclasses.replace(result, alpha=result.p_value).reject
        assert not dataclasses.replace(result, alpha=0.1).reject

    def test_degenerate_without_statistic(self):
        result = ErrorDifferenceResult(0.2, 0.0, 0.05, PLUGIN_ASYMPTOTIC)
        assert result.degenerate
        assert result.reject is None
        assert not studentized(0.2, 0.04).degenerate


class TestPluginVariance:
    def test_formula(self):
        # n = 90 and m = g + 1 = 3 come from the weights.
        variance = variance_estimate(-1.0, 0.3, 0.1, n=90, m=3)
        result = run_error_difference_test(0.0, variance)
        assert result.mode_used == PLUGIN_ASYMPTOTIC
        assert result.u_n == pytest.approx(9 * 0.2 / 90, abs=1e-15)


class TestErrorDifferenceTest:
    def test_unbiased_mode_uses_v_hat(self):
        variance = variance_estimate(0.02, 0.5, 0.1)
        result = run_error_difference_test(0.1, variance)
        assert result.mode_used == UNBIASED
        assert result.u_n == 0.02

    def test_fallback_to_plugin_when_v_hat_nonpositive(self):
        variance = variance_estimate(-0.003, 0.5, 0.1)
        result = run_error_difference_test(0.1, variance)
        assert result.mode_used == PLUGIN_ASYMPTOTIC
        assert result.u_n == pytest.approx(4 * 0.4 / 10, abs=1e-15)
        assert not result.degenerate

    def test_plugin_mode_ignores_v_hat(self):
        variance = variance_estimate(0.02, 0.5, 0.1)
        result = run_error_difference_test(0.1, variance, mode=PLUGIN_ASYMPTOTIC)
        assert result.mode_used == PLUGIN_ASYMPTOTIC
        assert result.u_n == pytest.approx(4 * 0.4 / 10, abs=1e-15)

    def test_degenerate_when_both_routes_fail(self):
        variance = variance_estimate(-0.01, 0.1, 0.3)
        result = run_error_difference_test(0.1, variance)
        assert result.degenerate
        assert result.mode_used == PLUGIN_ASYMPTOTIC
        assert result.reject is None

    def test_unknown_mode_rejected(self):
        variance = variance_estimate(0.02, 0.5, 0.1)
        with pytest.raises(ValueError, match="mode"):
            run_error_difference_test(0.1, variance, mode="bootstrap")

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-53])
    def test_alpha_too_small_for_the_quantile_rejected(self, alpha):
        # 1 - alpha/2 rounds to 1.0 here, where the normal quantile is infinite.
        with pytest.raises(ValueError, match="alpha"):
            studentized(0.1, 0.02, alpha)

    def test_smallest_accepted_alpha_gives_a_finite_interval(self):
        alpha = math.nextafter(2.0**-53, 1.0)
        result = studentized(0.1, 0.02, alpha)
        assert math.isfinite(result.ci_low) and math.isfinite(result.ci_high)
