"""Complete and random-subset averages of the comparison kernels.

The point estimate averages the symmetrized kernel over size-(g+1) subsets:
over all of them in complete mode (the minimum-variance unbiased choice), or
over independent uniform draws in incomplete mode, where the batched scheme
fits once per draw and scores every held-out row. The same two modes produce
the second-moment statistics (overlap products and the disjoint-window
square) that combine with hypergeometric weights into an unbiased estimate
of the point estimate's variance, which exists whenever n >= 2g + 2.

Determinism: every statistic derives its own stream from (seed, statistic
key), the draw list is generated up front, and reductions use exact
summation in draw order, so results are reproducible. Evaluation is
single-threaded.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .dataset import Dataset
from .designs import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    HypergeometricWeights,
    hypergeometric_weights,
    make_stream,
    sample_ordered_subsets,
)
from .kernels import ComparisonKernel, KernelEvaluator

COMPLETE = "complete"
INCOMPLETE = "incomplete"

# Sub-stream keys; kappa uses (_STREAM_KAPPA, c) so each overlap order gets
# its own independent stream.
_STREAM_DELTA = (0,)
_STREAM_THETA2 = (1,)
_STREAM_KAPPA = 2

DEFAULT_NONDEGENERACY_TOL = 1e-8


class SampleTooSmallError(ValueError):
    """The sample cannot support the requested statistic's degree."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Budgets, seed, and mode shared by the estimation routines.

    In incomplete mode the budgets count draws per statistic (for the point
    estimate: learner fits). In complete mode they are ignored and full
    enumeration is used instead.
    """

    g: int
    n_delta: int = 100_000
    n_kappa: int = 100_000
    n_theta2: int = 100_000
    seed: int = 0
    mode: str = INCOMPLETE

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g!r}")
        for name in ("n_delta", "n_kappa", "n_theta2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.mode not in (COMPLETE, INCOMPLETE):
            raise ValueError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class VarianceEstimate:
    """Unbiased variance estimate and the pieces it combines.

    v_hat = sum_c alpha_c * kappa_hat_c - (1 - alpha_0) * theta2_hat, with
    kappa_hats covering overlaps c = 1..m. A negative v_hat is legitimate
    randomness at small n and is flagged, never clamped. degeneracy_warning
    records that kappa_hat_1 - theta2_hat was at or below tolerance, where
    the studentized limit stops being informative.
    """

    v_hat: float
    kappa_hats: tuple[float, ...]
    theta2_hat: float
    weights: HypergeometricWeights
    nonpositive: bool
    degeneracy_warning: bool


def _combine(
    weights: HypergeometricWeights, kappa_hats: Sequence[float], theta2_hat: float
) -> float:
    terms = [
        weights.alpha[c] * kappa_hats[c - 1] for c in range(1, weights.m + 1)
    ]
    terms.append(-(1.0 - weights.alpha[0]) * theta2_hat)
    return math.fsum(terms)


def complete_u_statistic(
    kernel_eval: Callable[[Dataset, tuple[int, ...]], float],
    data: Dataset,
    m: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Average of a subset kernel over all size-m subsets of the rows."""
    if not 1 <= m <= data.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={data.n}")
    count = math.comb(data.n, m)
    if count > budget:
        raise BudgetExceededError(
            f"complete enumeration needs C({data.n},{m}) = {count} evaluations, "
            f"over the budget of {budget}"
        )
    subsets = itertools.combinations(range(1, data.n + 1), m)
    values = [kernel_eval(data, s) for s in subsets]
    return math.fsum(values) / count


def incomplete_u_statistic(
    kernel_eval: Callable[[Dataset, tuple[int, ...]], float],
    data: Dataset,
    m: int,
    draws: int,
    rng,
) -> float:
    """Average of an ordered-subset kernel over independent uniform draws."""
    if not 1 <= m <= data.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={data.n}")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws!r}")
    subsets = sample_ordered_subsets(data.n, m, draws, rng)
    values = [kernel_eval(data, s) for s in subsets]
    return math.fsum(values) / draws


def _require_degree(n: int, degree: int, what: str) -> None:
    if degree > n:
        raise SampleTooSmallError(
            f"{what} has degree {degree}, which needs n >= {degree}; got n = {n}. "
            f"The variance statistics require n >= 2g + 2."
        )


def estimate_delta(
    kernel: ComparisonKernel,
    data: Dataset,
    config: EstimatorConfig,
    evaluator: KernelEvaluator | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Estimate the expected error-rate difference of the two algorithms.

    Complete mode averages the symmetrized kernel over every size-(g+1)
    subset. Incomplete mode draws n_delta uniform learning sets, fits both
    learners once per draw, scores all n - g held-out rows, and averages
    every contribution; the budget counts fits, not pointwise evaluations.
    """
    m = kernel.m
    _require_degree(data.n, m, "the point estimate")
    if evaluator is None:
        evaluator = KernelEvaluator(kernel, data)
    if config.mode == COMPLETE:
        return complete_u_statistic(
            lambda _data, members: evaluator.phi0(members), data, m, budget
        )
    stream = make_stream(config.seed, _STREAM_DELTA)
    n = data.n
    draws = sample_ordered_subsets(n, kernel.g, config.n_delta, stream)
    totals = [evaluator.phi_complement_total(d) for d in draws]
    return math.fsum(totals) / (config.n_delta * (n - kernel.g))


def _symmetrized_product(evaluator: KernelEvaluator, members: tuple[int, ...], c: int) -> float:
    """Average the overlap-c product kernel over all window choices in a subset.

    Equivalent to averaging the ordered-tuple product kernel over every
    ordering of the subset, because the symmetrized kernel ignores order
    within each window.
    """
    m = evaluator.kernel.m
    values = []
    for overlap in itertools.combinations(members, c):
        overlap_set = set(overlap)
        rest = [i for i in members if i not in overlap_set]
        for first_rest in itertools.combinations(rest, m - c):
            first_set = set(first_rest)
            window_1 = overlap + first_rest
            window_2 = overlap + tuple(i for i in rest if i not in first_set)
            values.append(evaluator.phi0(window_1) * evaluator.phi0(window_2))
    return math.fsum(values) / len(values)


def _estimate_product(
    kernel: ComparisonKernel,
    data: Dataset,
    c: int,
    config: EstimatorConfig,
    draws_budget: int,
    stream_key: tuple[int, ...],
    evaluator: KernelEvaluator | None,
    budget: int,
) -> float:
    degree = 2 * kernel.m - c
    _require_degree(data.n, degree, f"the overlap-{c} product statistic")
    if evaluator is None:
        evaluator = KernelEvaluator(kernel, data)
    if config.mode == COMPLETE:
        return complete_u_statistic(
            lambda _data, members: _symmetrized_product(evaluator, members, c),
            data,
            degree,
            budget,
        )
    stream = make_stream(config.seed, stream_key)
    draws = sample_ordered_subsets(data.n, degree, draws_budget, stream)
    values = [evaluator.product(t, c) for t in draws]
    return math.fsum(values) / draws_budget


def estimate_kappa_c(
    kernel: ComparisonKernel,
    data: Dataset,
    c: int,
    config: EstimatorConfig,
    evaluator: KernelEvaluator | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Estimate the mean of the overlap-c product kernel (degree 2(g+1) - c).

    Each overlap order uses its own independent sub-stream of the seed, so
    the value matches what estimate_variance computes internally.
    """
    if not 1 <= c <= kernel.m:
        raise ValueError(f"overlap c must lie in 1..{kernel.m}, got {c}")
    return _estimate_product(
        kernel, data, c, config, config.n_kappa, (_STREAM_KAPPA, c), evaluator, budget
    )


def estimate_theta2(
    kernel: ComparisonKernel,
    data: Dataset,
    config: EstimatorConfig,
    evaluator: KernelEvaluator | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Estimate the squared mean via disjoint windows (degree 2g + 2).

    Disjoint windows keep the estimate unbiased; squaring the point estimate
    instead would not be.
    """
    return _estimate_product(
        kernel, data, 0, config, config.n_theta2, _STREAM_THETA2, evaluator, budget
    )


def estimate_variance(
    kernel: ComparisonKernel,
    data: Dataset,
    config: EstimatorConfig,
    evaluator: KernelEvaluator | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    nondegeneracy_tol: float = DEFAULT_NONDEGENERACY_TOL,
) -> VarianceEstimate:
    """Unbiased estimate of the point estimate's variance (n >= 2g + 2).

    Combines the overlap products and the disjoint-window square with the
    hypergeometric overlap weights. The result can be negative in small
    samples; it is flagged, not clamped.
    """
    m = kernel.m
    if data.n < 2 * m:
        raise SampleTooSmallError(
            f"the unbiased variance estimate requires n >= 2g + 2 = {2 * m}; got n = {data.n}"
        )
    if evaluator is None:
        evaluator = KernelEvaluator(kernel, data)
    kappa_hats = tuple(
        estimate_kappa_c(kernel, data, c, config, evaluator, budget)
        for c in range(1, m + 1)
    )
    theta2_hat = estimate_theta2(kernel, data, config, evaluator, budget)
    weights = hypergeometric_weights(data.n, m)
    v_hat = _combine(weights, kappa_hats, theta2_hat)
    degenerate = kappa_hats[0] - theta2_hat <= nondegeneracy_tol
    if degenerate:
        warnings.warn(
            f"kappa_hat_1 - theta2_hat = {kappa_hats[0] - theta2_hat:.3e} is within "
            f"tolerance {nondegeneracy_tol:.1e} of zero; the comparison looks "
            f"degenerate and studentized inference may be uninformative",
            RuntimeWarning,
            stacklevel=2,
        )
    return VarianceEstimate(
        v_hat=v_hat,
        kappa_hats=kappa_hats,
        theta2_hat=theta2_hat,
        weights=weights,
        nonpositive=v_hat <= 0.0,
        degeneracy_warning=degenerate,
    )
