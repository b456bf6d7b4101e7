"""Studentized two-sided test of equal error rates, with confidence interval.

The point estimate divided by the square root of a variance estimate u(n) is
asymptotically standard normal, so |estimate| >= sqrt(u(n)) * z_(1-alpha/2)
rejects equality at level alpha. u(n) is either the unbiased variance
estimate ("unbiased", the default) or the large-sample plug-in
m^2 * (kappa_1_hat - theta2_hat) / n with m = g + 1 ("plugin_asymptotic").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import VarianceEstimate

UNBIASED = "unbiased"
PLUGIN_ASYMPTOTIC = "plugin_asymptotic"

#: alpha must exceed this: at or below 2^-53, 1 - alpha/2 rounds to 1.0 and
#: the normal quantile of the interval is infinite.
ALPHA_FLOOR = 2.0**-53

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the two-sided comparison test.

    Without a positive variance u_n there is no decision: statistic, p_value
    and the interval stay None. Two values are derived: degenerate is
    statistic is None, and reject is p_value <= alpha (non-strict), or None
    when there is no p-value.
    """

    delta_hat: float
    u_n: float
    alpha: float
    mode_used: str
    statistic: float | None = None
    p_value: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None

    @property
    def degenerate(self) -> bool:
        return self.statistic is None

    @property
    def reject(self) -> bool | None:
        return None if self.p_value is None else self.p_value <= self.alpha


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, via the complementary error
    function (accurate in both tails)."""
    return 0.5 * math.erfc(-x / _SQRT2)


# Rational approximation of the standard normal quantile (Acklam's
# coefficients, relative error below 1.2e-9), refined below with one Halley
# step against normal_cdf.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Standard normal quantile on (0, 1).

    Rational approximation plus one Halley refinement step; the roundtrip
    normal_cdf(normal_quantile(p)) is accurate to well below 1e-12.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    # One Halley step: e is the cdf error, u the Newton correction.
    e = normal_cdf(x) - p
    u = e * _SQRT_2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def test_error_difference(
    delta_hat: float,
    variance: VarianceEstimate,
    alpha: float = 0.05,
    mode: str = UNBIASED,
) -> TestResult:
    """Two-sided test of a zero error difference at level alpha.

    n and m = g + 1 come from variance.weights. mode "unbiased" studentizes
    with v_hat; if v_hat is nonpositive it falls back to the plug-in
    m^2 (kappa_1_hat - theta2_hat) / n and records that in mode_used. mode
    "plugin_asymptotic" uses the plug-in directly. p = 2 (1 - cdf(|statistic|))
    and rejection is non-strict (p <= alpha). If the chosen variance is not
    positive the result is degenerate: it carries that value and no decision.
    """
    if mode not in (UNBIASED, PLUGIN_ASYMPTOTIC):
        raise ValueError(f"unknown variance mode {mode!r}")
    if not ALPHA_FLOOR < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 2^-53 and 1, got {alpha!r}")
    if mode == UNBIASED and variance.v_hat > 0.0:
        mode_used, u_n = UNBIASED, variance.v_hat
    else:
        m, n = variance.weights.m, variance.weights.n
        mode_used = PLUGIN_ASYMPTOTIC
        u_n = m**2 * (variance.kappa_hats[0] - variance.theta2_hat) / n
    if u_n <= 0.0:
        return TestResult(delta_hat, u_n, alpha, mode_used)
    statistic = delta_hat / math.sqrt(u_n)
    # erfc(|z|/sqrt(2)) equals 2*(1 - cdf(|z|)) without cancellation.
    p_value = math.erfc(abs(statistic) / _SQRT2)
    half_width = math.sqrt(u_n) * normal_quantile(1.0 - alpha / 2.0)
    return TestResult(
        delta_hat,
        u_n,
        alpha,
        mode_used,
        statistic=statistic,
        p_value=p_value,
        ci_low=delta_hat - half_width,
        ci_high=delta_hat + half_width,
    )
