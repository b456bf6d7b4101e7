"""Designs and samplers that only the tests use.

The K-fold design and the tail bound behind --digits are reference objects
for the acceptance criteria; sample_dataset draws replicate datasets from an
oracle distribution; squared_point_variance is a deliberately biased
variance estimator that the self-checks must catch. Refitting hides both of
a built-in learner's batches, loo_errors_batch and holdout_errors_batch, so
the kernels fit and predict it for every phi0 key and every learning set.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from ucompare.dataset import Dataset
from ucompare.estimators import (
    EstimatorConfig,
    VarianceEstimate,
    _combine,
    estimate_delta,
    estimate_variance,
)
from ucompare.kernels import KernelEvaluator
from ucompare.oracle import DiscreteDistribution


class OrderedSplit(NamedTuple):
    """A learning/testing split: g learning indices plus one test index."""

    learn: tuple[int, ...]
    test: int


def kfold_design(n: int, g: int) -> tuple[OrderedSplit, ...]:
    """Cross-validation splits with contiguous test blocks of size n - g.

    Block k (k = 0..K-1, K = n/(n-g)) tests each index in it against all
    indices outside the block, taken ascending. Requires (n - g) | n and
    g >= n/2; g = n - 1 gives leave-one-out.
    """
    if not 1 <= g <= n - 1:
        raise ValueError(f"need 1 <= g <= n - 1, got g={g}, n={n}")
    block = n - g
    if n % block != 0:
        raise ValueError(f"block size n - g = {block} must divide n = {n}")
    if 2 * g < n:
        raise ValueError(f"need g >= n/2 for the fold structure, got g={g}, n={n}")
    folds = n // block
    entries = []
    for k in range(folds):
        start = k * block + 1
        test_block = range(start, start + block)
        learn = tuple(i for i in range(1, n + 1) if not start <= i < start + block)
        for t in test_block:
            entries.append(OrderedSplit(learn=learn, test=t))
    return tuple(entries)


def approximation_error_bound(tolerance: float, draws: int) -> float:
    """Tail bound 2*exp(-tolerance^2 * draws / 2) on the random-subset error.

    Valid for kernels bounded in [-1, 1]: the probability that an average of
    `draws` uniform subset evaluations misses the complete average by at
    least `tolerance` is at most this value.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws!r}")
    return 2.0 * math.exp(-(tolerance**2) * draws / 2.0)


def sample_dataset(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> Dataset:
    """n i.i.d. draws from the distribution, as a dataset."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    picks = rng.choice(dist.support_size, size=n, p=dist.probabilities)
    obs = tuple(dist.observations[int(i)] for i in picks)
    return Dataset(obs)


def squared_point_variance(ev: KernelEvaluator, config: EstimatorConfig) -> VarianceEstimate:
    """estimate_variance with the squared point estimate in place of the
    disjoint-window estimate, which biases v_hat."""
    ve = estimate_variance(ev, config)
    return dataclasses.replace(
        ve, v_hat=_combine(ve.weights, ve.kappa_hats, estimate_delta(ev, config) ** 2)
    )


class Refitting:
    """A learner's fit alone, without loo_errors_batch or holdout_errors_batch.

    The kernels fit and predict it wherever the batches would answer: for
    phi0 through phi, and for phi_complement_total through predict_batch.
    """

    def __init__(self, inner):
        self.inner = inner

    def fit(self, learning_set):
        return self.inner.fit(learning_set)
