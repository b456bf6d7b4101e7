"""Exhaustive ground truth over tiny discrete distributions.

Everything here is exact up to float rounding: population quantities come
from weighted sums over all ordered atom tuples, and estimator moments from
weighted sums over all s^n datasets, both enumerated in mixed-radix order
with product weights. These brute-force values are what the estimators are
checked against. The module also holds the scalar pointwise and symmetrized
kernels on observations, refitting on every call, as the independent
reference for KernelEvaluator.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .dataset import Dataset, Observation
from .designs import DEFAULT_ENUMERATION_BUDGET, BudgetExceededError, hypergeometric_weights
from .estimators import COMPLETE, EstimatorConfig, _combine, estimate_delta, estimate_variance
from .kernels import ComparisonKernel, KernelEvaluator
from .learners import constant_learner, knn_learner, misclassification_loss


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite distribution over labelled points: ((observation, weight), ...)."""

    atoms: tuple[tuple[Observation, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((obs, float(p)) for obs, p in self.atoms))
        if len(self.atoms) < 2:
            raise ValueError(f"need at least 2 atoms, got {len(self.atoms)}")
        for obs, p in self.atoms:
            if not p > 0.0:
                raise ValueError(f"atom weights must be positive, got {p!r}")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total!r}")

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(obs for obs, _ in self.atoms)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Sequence[float], int, float]]) -> "DiscreteDistribution":
        """Build from (features, label, weight) triples."""
        return cls(tuple((Observation(tuple(x), y), p) for x, y, p in rows))


def _iter_weighted_tuples(
    dist: DiscreteDistribution, length: int
) -> Iterator[tuple[tuple[Observation, ...], float]]:
    """All support^length ordered tuples with their product weights.

    Mixed-radix order, last position fastest; each weight is the product of
    the atom probabilities taken left to right. Raises BudgetExceededError
    beyond DEFAULT_ENUMERATION_BUDGET tuples.
    """
    s = dist.support_size
    total = s**length
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration needs {s}^{length} = {total} weighted tuples, over the "
            f"budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    obs = dist.observations
    probs = dist.probabilities
    for digits in itertools.product(range(s), repeat=length):
        yield tuple(obs[d] for d in digits), math.prod(probs[d] for d in digits)


def phi_value(
    kernel: ComparisonKernel,
    learn_obs: Sequence[Observation],
    test_obs: Observation,
) -> int:
    """Misclassification difference of the two fitted predictors at one test point."""
    if len(learn_obs) != kernel.g:
        raise ValueError(f"expected {kernel.g} learning observations, got {len(learn_obs)}")
    pred_a = kernel.learner_a.fit(learn_obs)
    pred_b = kernel.learner_b.fit(learn_obs)
    return misclassification_loss(
        pred_a.predict(test_obs.x), test_obs.y
    ) - misclassification_loss(pred_b.predict(test_obs.x), test_obs.y)


def phi0_value(kernel: ComparisonKernel, subset_obs: Sequence[Observation]) -> float:
    """Symmetrized kernel on g + 1 observations.

    Each position serves as the test point once, with the rest as the
    learning set; the g + 1 evaluations are averaged.
    """
    m = kernel.m
    if len(subset_obs) != m:
        raise ValueError(f"expected {m} observations, got {len(subset_obs)}")
    subset_obs = list(subset_obs)
    values = [
        phi_value(kernel, subset_obs[:i] + subset_obs[i + 1 :], subset_obs[i])
        for i in range(m)
    ]
    return sum(values) / m


def _phi0_memo(kernel: ComparisonKernel) -> Callable[[Sequence[Observation]], float]:
    """The symmetrized kernel on atom windows, memoized by the window sorted by (x, y)."""
    cached = functools.cache(lambda window: phi0_value(kernel, window))
    return lambda window: cached(tuple(sorted(window, key=lambda obs: (obs.x, obs.y))))


def true_delta(dist: DiscreteDistribution, kernel: ComparisonKernel) -> float:
    """Exact expected error difference: the weighted sum of the pointwise
    kernel over all ordered (g+1)-tuples of atoms."""
    g = kernel.g
    terms = [
        w * phi_value(kernel, tup[:g], tup[g])
        for tup, w in _iter_weighted_tuples(dist, g + 1)
    ]
    return math.fsum(terms)


def expected_phi0(dist: DiscreteDistribution, kernel: ComparisonKernel) -> float:
    """Exact mean of the symmetrized kernel; must agree with true_delta."""
    phi0 = _phi0_memo(kernel)
    terms = [w * phi0(tup) for tup, w in _iter_weighted_tuples(dist, kernel.m)]
    return math.fsum(terms)


def _true_product(dist: DiscreteDistribution, kernel: ComparisonKernel, c: int) -> float:
    """Exact mean of the product kernel on two windows sharing c positions."""
    m = kernel.m
    phi0 = _phi0_memo(kernel)
    terms = [
        w * phi0(tup[:m]) * phi0(tup[m - c :])
        for tup, w in _iter_weighted_tuples(dist, 2 * m - c)
    ]
    return math.fsum(terms)


def true_kappa_c(dist: DiscreteDistribution, kernel: ComparisonKernel, c: int) -> float:
    """Exact mean of the overlap-c product kernel over i.i.d. tuples."""
    m = kernel.m
    if not 1 <= c <= m:
        raise ValueError(f"overlap c must lie in 1..{m}, got {c}")
    return _true_product(dist, kernel, c)


def true_theta2(dist: DiscreteDistribution, kernel: ComparisonKernel) -> float:
    """Exact mean of the disjoint-window product: the squared expected
    difference, computed without squaring."""
    return _true_product(dist, kernel, 0)


def exact_estimator_moments(
    dist: DiscreteDistribution, n: int, estimator: Callable[[Dataset], float]
) -> tuple[float, float]:
    """Exact (mean, variance) of a dataset statistic under i.i.d. sampling.

    Enumerates all support^n ordered datasets with product weights and runs
    the estimator on each one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    mean_terms = []
    square_terms = []
    for tup, w in _iter_weighted_tuples(dist, n):
        value = estimator(Dataset(tup))
        mean_terms.append(w * value)
        square_terms.append(w * value * value)
    mean = math.fsum(mean_terms)
    return mean, math.fsum(square_terms) - mean * mean


# --- built-in self-check scenarios -----------------------------------------

#: Three separable 1-D atoms with dyadic weights (so they sum to 1 exactly).
MIXED_LABELS = DiscreteDistribution.from_rows(
    [
        ((0.0,), 0, 0.625),
        ((1.0,), 1, 0.25),
        ((2.0,), 1, 0.125),
    ]
)

#: Balanced labels; the constant learners are mirror images under label flip.
BALANCED_LABELS = DiscreteDistribution.from_rows(
    [
        ((0.0,), 0, 0.5),
        ((1.0,), 1, 0.5),
    ]
)


@dataclass(frozen=True)
class OracleScenario:
    """A tiny fully-enumerable setting the self-checks run against."""

    name: str
    description: str
    dist: DiscreteDistribution
    kernel: ComparisonKernel
    n: int


def builtin_scenarios() -> tuple[OracleScenario, ...]:
    return (
        OracleScenario(
            name="knn1-vs-const0",
            description="1-nearest-neighbour against always-0, three atoms, g=1, n=4",
            dist=MIXED_LABELS,
            kernel=ComparisonKernel(knn_learner(1), constant_learner(0), g=1),
            n=4,
        ),
        OracleScenario(
            name="mirror-constants",
            description="always-1 against always-0 on balanced labels, g=1, n=4",
            dist=BALANCED_LABELS,
            kernel=ComparisonKernel(constant_learner(1), constant_learner(0), g=1),
            n=4,
        ),
    )


#: Largest absolute residual a self-check may leave; the residuals are exact
#: up to float rounding.
CHECK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CheckResult:
    """One self-check outcome: an exact residual, held to CHECK_TOLERANCE."""

    scenario: str
    name: str
    residual: float

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= CHECK_TOLERANCE


def run_checks() -> list[CheckResult]:
    """Run the exact self-checks on the built-in scenarios."""
    results = []
    for sc in builtin_scenarios():
        kernel, dist, n = sc.kernel, sc.dist, sc.n
        m = kernel.m
        config = EstimatorConfig(mode=COMPLETE)
        delta = true_delta(dist, kernel)
        results.append(
            CheckResult(sc.name, "symmetrized-kernel-mean", expected_phi0(dist, kernel) - delta)
        )
        mean_delta_hat, var_delta_hat = exact_estimator_moments(
            dist, n, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
        )
        results.append(CheckResult(sc.name, "point-estimate-unbiased", mean_delta_hat - delta))
        weights = hypergeometric_weights(n, m)
        kappa_trues = tuple(true_kappa_c(dist, kernel, c) for c in range(1, m + 1))
        decomposition = _combine(weights, kappa_trues, true_theta2(dist, kernel))
        results.append(
            CheckResult(sc.name, "variance-decomposition", var_delta_hat - decomposition)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean_v_hat, _ = exact_estimator_moments(
                dist, n, lambda ds: estimate_variance(KernelEvaluator(kernel, ds), config).v_hat
            )
        results.append(
            CheckResult(sc.name, "variance-estimate-unbiased", mean_v_hat - var_delta_hat)
        )
    return results
