"""Complete and random-subset averages of the comparison kernels.

The point estimate averages the symmetrized kernel over size-(g+1) subsets:
over all of them in complete mode (the minimum-variance unbiased choice), or
over independent uniform draws in incomplete mode, where the batched scheme
fits once per draw and scores every held-out row. The same two modes produce
the second-moment statistics (overlap products and the disjoint-window
square) that combine with hypergeometric weights into an unbiased estimate
of the point estimate's variance, which exists whenever n >= 2g + 2. Every
estimator reads the kernel and the sample from one KernelEvaluator and its
draw budget, seed and mode from one EstimatorConfig.

Determinism: every statistic derives its own stream from (seed, statistic
key), the draw list is generated up front, and reductions use exact
summation in draw order, so results are reproducible. Evaluation is
single-threaded.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .designs import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    HypergeometricWeights,
    hypergeometric_weights,
    make_stream,
    sample_ordered_subsets,
)
from .kernels import KernelEvaluator, SampleTooSmallError

COMPLETE = "complete"
INCOMPLETE = "incomplete"

# Sub-stream keys; kappa uses (_STREAM_KAPPA, c) so each overlap order gets
# its own independent stream.
_STREAM_DELTA = (0,)
_STREAM_THETA2 = (1,)
_STREAM_KAPPA = 2

NONDEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class EstimatorConfig:
    """Draw budget, seed, and mode shared by the estimation routines.

    In incomplete mode every statistic averages `draws` independent draws
    from its own stream of the seed; for the point estimate a draw is one
    learning set, fitted once. In complete mode draws and seed are ignored
    and every subset is enumerated instead.
    """

    draws: int = 100_000
    seed: int = 0
    mode: str = INCOMPLETE

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws!r}")
        if self.mode not in (COMPLETE, INCOMPLETE):
            raise ValueError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class VarianceEstimate:
    """Unbiased variance estimate and the pieces it combines.

    v_hat = sum_c alpha_c * kappa_hat_c - (1 - alpha_0) * theta2_hat, with
    kappa_hats covering overlaps c = 1..m. A negative v_hat is legitimate
    randomness at small n and is flagged, never clamped. Both flags are
    derived from the stored values: nonpositive is v_hat <= 0, and
    degeneracy_warning is kappa_hat_1 - theta2_hat at or below
    NONDEGENERACY_TOL, where the studentized limit stops being informative.
    """

    v_hat: float
    kappa_hats: tuple[float, ...]
    theta2_hat: float
    weights: HypergeometricWeights

    @property
    def nonpositive(self) -> bool:
        return self.v_hat <= 0.0

    @property
    def degeneracy_warning(self) -> bool:
        return self.kappa_hats[0] - self.theta2_hat <= NONDEGENERACY_TOL


def _combine(
    weights: HypergeometricWeights, kappa_hats: Sequence[float], theta2_hat: float
) -> float:
    terms = [
        weights.alpha[c] * kappa_hats[c - 1] for c in range(1, weights.m + 1)
    ]
    terms.append(-(1.0 - weights.alpha[0]) * theta2_hat)
    return math.fsum(terms)


def _enumeration_size(n: int, k: int) -> int:
    """C(n, k), or BudgetExceededError when that is over the enumeration budget."""
    count = math.comb(n, k)
    if count > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"complete enumeration needs C({n},{k}) = {count} evaluations, "
            f"over the budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    return count


def check_complete_budget(n: int, m: int) -> None:
    """Raise BudgetExceededError unless complete mode can enumerate every statistic.

    Checks the degrees in the order a comparison enumerates them (m for the
    point estimate, 2m - c for the overlap products c = 1..m, 2m for the
    disjoint-window square), so an oversized run stops before any kernel
    evaluation and names the same degree it would have failed on.
    """
    for k in (m, *range(2 * m - 1, m - 1, -1), 2 * m):
        _enumeration_size(n, k)


def complete_u_statistic(
    kernel_eval: Callable[[tuple[int, ...]], float], n: int, m: int
) -> float:
    """Average of a subset kernel over all size-m subsets of rows 1..n."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    count = _enumeration_size(n, m)
    values = [kernel_eval(s) for s in itertools.combinations(range(1, n + 1), m)]
    return math.fsum(values) / count


def incomplete_u_statistic(
    kernel_eval: Callable[[tuple[int, ...]], float], n: int, m: int, draws: int, rng
) -> float:
    """Average of an ordered-subset kernel over independent uniform draws."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws!r}")
    subsets = sample_ordered_subsets(n, m, draws, rng)
    values = [kernel_eval(s) for s in subsets]
    return math.fsum(values) / draws


def _require_degree(n: int, degree: int, what: str) -> None:
    if degree > n:
        raise SampleTooSmallError(
            f"{what} has degree {degree}, which needs n >= {degree}; got n = {n}. "
            f"The variance statistics require n >= 2g + 2."
        )


def estimate_delta(evaluator: KernelEvaluator, config: EstimatorConfig) -> float:
    """Estimate the expected error-rate difference of the evaluator's two algorithms.

    Complete mode averages the symmetrized kernel over every size-(g+1)
    subset. Incomplete mode draws config.draws uniform learning sets, fits
    both learners once per draw, scores all n - g held-out rows, and averages
    every contribution; the budget counts fits, not pointwise evaluations.
    """
    g, n = evaluator.kernel.g, evaluator.data.n
    if config.mode == COMPLETE:
        return complete_u_statistic(evaluator.phi0, n, g + 1)
    stream = make_stream(config.seed, _STREAM_DELTA)
    draws = sample_ordered_subsets(n, g, config.draws, stream)
    totals = [evaluator.phi_complement_total(d) for d in draws]
    return math.fsum(totals) / (config.draws * (n - g))


def _window_pairs(m: int, c: int) -> list[tuple[Callable, Callable]]:
    """Ordered pairs of size-m windows sharing c positions, over a size-(2m - c) subset.

    Each pair is two itemgetters over the subset's positions: the first
    window, then the second, made of c shared positions and the m - c
    positions outside the first window. Both windows list their positions
    in ascending order, so on an ascending subset every phi0 request is an
    ascending tuple, which the evaluator answers by the request itself.
    The pair order (first window, then shared positions, both in
    combinations order) fixes the summation order of _symmetrized_product.
    """
    positions = range(2 * m - c)
    pairs = []
    for first in itertools.combinations(positions, m):
        rest = tuple(p for p in positions if p not in first)
        for shared in itertools.combinations(first, c):
            second = sorted(shared + rest)
            pairs.append((operator.itemgetter(*first), operator.itemgetter(*second)))
    return pairs


def _symmetrized_product(
    evaluator: KernelEvaluator, members: tuple[int, ...], pairs: list[tuple[Callable, Callable]]
) -> float:
    """Average the overlap-c product kernel over all window choices in a subset.

    pairs is _window_pairs(m, c). Equivalent to averaging the ordered-tuple
    product kernel over every ordering of the subset, because the
    symmetrized kernel ignores order within each window.
    """
    phi0 = evaluator.phi0
    values = [phi0(first(members)) * phi0(second(members)) for first, second in pairs]
    return math.fsum(values) / len(pairs)


def _estimate_product(
    evaluator: KernelEvaluator, c: int, config: EstimatorConfig, stream_key: tuple[int, ...]
) -> float:
    n = evaluator.data.n
    degree = 2 * evaluator.kernel.m - c
    _require_degree(n, degree, f"the overlap-{c} product statistic")
    if config.mode == COMPLETE:
        pairs = _window_pairs(evaluator.kernel.m, c)
        return complete_u_statistic(
            lambda members: _symmetrized_product(evaluator, members, pairs), n, degree
        )
    return incomplete_u_statistic(
        lambda t: evaluator.product(t, c),
        n,
        degree,
        config.draws,
        make_stream(config.seed, stream_key),
    )


def estimate_kappa_c(evaluator: KernelEvaluator, c: int, config: EstimatorConfig) -> float:
    """Estimate the mean of the overlap-c product kernel (degree 2(g+1) - c).

    Each overlap order uses its own independent sub-stream of the seed, so
    the value matches what estimate_variance computes internally.
    """
    m = evaluator.kernel.m
    if not 1 <= c <= m:
        raise ValueError(f"overlap c must lie in 1..{m}, got {c}")
    return _estimate_product(evaluator, c, config, (_STREAM_KAPPA, c))


def estimate_theta2(evaluator: KernelEvaluator, config: EstimatorConfig) -> float:
    """Estimate the squared mean via disjoint windows (degree 2g + 2).

    Disjoint windows keep the estimate unbiased; squaring the point estimate
    instead would not be.
    """
    return _estimate_product(evaluator, 0, config, _STREAM_THETA2)


def estimate_variance(evaluator: KernelEvaluator, config: EstimatorConfig) -> VarianceEstimate:
    """Unbiased estimate of the point estimate's variance (n >= 2g + 2).

    Combines the overlap products and the disjoint-window square with the
    hypergeometric overlap weights. The result can be negative in small
    samples; it is flagged, not clamped. In complete mode every degree is
    checked against the enumeration budget before any kernel evaluation.
    """
    n, m = evaluator.data.n, evaluator.kernel.m
    if n < 2 * m:
        raise SampleTooSmallError(
            f"the unbiased variance estimate requires n >= 2g + 2 = {2 * m}; got n = {n}"
        )
    if config.mode == COMPLETE:
        check_complete_budget(n, m)
    kappa_hats = tuple(estimate_kappa_c(evaluator, c, config) for c in range(1, m + 1))
    theta2_hat = estimate_theta2(evaluator, config)
    weights = hypergeometric_weights(n, m)
    estimate = VarianceEstimate(
        _combine(weights, kappa_hats, theta2_hat), kappa_hats, theta2_hat, weights
    )
    if estimate.degeneracy_warning:
        warnings.warn(
            f"kappa_hat_1 - theta2_hat = {kappa_hats[0] - theta2_hat:.3e} is at or "
            f"below the tolerance {NONDEGENERACY_TOL:.1e}; the comparison looks "
            f"degenerate and studentized inference may be uninformative",
            RuntimeWarning,
            stacklevel=2,
        )
    return estimate
