"""Learning/testing splits, their overlap weights, and subset sampling.

Indices are 1-based and refer to dataset rows. The K-fold design covers the
sample in contiguous test blocks; random splits come from uniform ordered
subsets drawn on seeded streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

#: Default cap on enumeration sizes (subsets or weighted datasets).
DEFAULT_ENUMERATION_BUDGET = 10**6

#: Largest per-statistic draw budget a run accepts.
MAX_DRAWS = 10**18

#: Identifier of the random stream algorithm, recorded in reports.
RNG_ALGORITHM = "numpy-pcg64-seedseq"


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget."""


def make_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic random stream for a seed and sub-stream key.

    Streams with distinct keys are statistically independent, and the mapping
    (seed, key) -> stream is stable across runs and platforms.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


class OrderedSplit(NamedTuple):
    """A learning/testing split: g learning indices plus one test index."""

    learn: tuple[int, ...]
    test: int


@dataclass(frozen=True)
class HypergeometricWeights:
    """Overlap weights alpha_0..alpha_m for subset pairs of size m from n.

    alpha_c is the probability that two independent uniform size-m subsets of
    {1..n} share exactly c elements: C(m,c) * C(n-m,m-c) / C(n,m).
    """

    n: int
    m: int
    alpha: tuple[float, ...]


def hypergeometric_weights(n: int, m: int) -> HypergeometricWeights:
    """Exact overlap weights, computed in integer arithmetic.

    Python integers cannot overflow, and the final Fraction-to-float
    conversion rounds each weight correctly.
    """
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    denom = math.comb(n, m)
    alpha = tuple(
        float(Fraction(math.comb(m, c) * math.comb(n - m, m - c), denom))
        for c in range(m + 1)
    )
    return HypergeometricWeights(n=n, m=m, alpha=alpha)


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


def sample_ordered_subsets(
    n: int, k: int, count: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """count independent uniform ordered k-subsets of {1..n}.

    Each draw is a partial Fisher-Yates shuffle. The stream is consumed one
    position at a time across the whole batch, which needs k generator calls
    instead of count * k; a fixed stream state reproduces the batch exactly.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    columns = [rng.integers(i, n, size=count) for i in range(k)]
    base = list(range(1, n + 1))
    draws = []
    for d in range(count):
        pool = base.copy()
        out = []
        for i in range(k):
            j = int(columns[i][d])
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        draws.append(tuple(out))
    return draws


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


def iterations_for_digits(digits: int) -> int:
    """Draw count that pins `digits` decimal places with probability 2*exp(-5).

    Solving the tail bound at tolerance 10^-digits for a fixed confidence
    gives N = 10^(2*digits + 1); digits=2 yields 10^5.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits!r}")
    exponent = 2 * digits + 1
    if 10**exponent > MAX_DRAWS:
        raise OverflowError(
            f"10^{exponent} draws exceeds the 64-bit budget range; "
            f"digits={digits} is not a practical request"
        )
    return 10**exponent
