"""Subset overlap weights, seeded subset sampling, and draw budgets.

Indices are 1-based and refer to dataset rows. Random splits come from
uniform ordered subsets drawn on seeded streams. Only the streams and the
sampler use numpy, and they import it when first called, so complete mode,
which draws nothing, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default cap on enumeration sizes (subsets or weighted datasets).
DEFAULT_ENUMERATION_BUDGET = 10**6

#: Largest per-statistic draw budget a run accepts.
MAX_DRAWS = 10**18

# Pool entries (int32) the batch sampler shuffles at a time; this bounds its
# working memory beyond the draws it returns.
_POOL_CHUNK_ELEMENTS = 2**14

#: Identifier of the random stream algorithm, recorded in reports.
RNG_ALGORITHM = "numpy-pcg64-seedseq"


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget."""


def make_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic random stream for a seed and sub-stream key.

    Streams with distinct keys are statistically independent, and the mapping
    (seed, key) -> stream is stable across runs and platforms. The first
    call in a process imports numpy.
    """
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


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

    Python integers cannot overflow, and int true division rounds each
    weight correctly.
    """
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    denom = math.comb(n, m)
    alpha = tuple(math.comb(m, c) * math.comb(n - m, m - c) / denom for c in range(m + 1))
    return HypergeometricWeights(n=n, m=m, alpha=alpha)


def sample_ordered_subsets(
    n: int, k: int, count: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """count independent uniform ordered k-subsets of {1..n}.

    Each draw is a partial Fisher-Yates shuffle. The stream is consumed one
    position at a time across the whole batch, which needs k generator calls
    instead of count * k; a fixed stream state reproduces the batch exactly.
    The shuffles run on chunks of at most _POOL_CHUNK_ELEMENTS pool entries,
    one row per draw, one column swap per position.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    import numpy as np

    columns = [rng.integers(i, n, size=count) for i in range(k)]
    base = np.arange(1, n + 1, dtype=np.int32)
    chunk_rows = max(1, _POOL_CHUNK_ELEMENTS // n)
    draws = []
    for start in range(0, count, chunk_rows):
        stop = min(start + chunk_rows, count)
        pool = np.tile(base, (stop - start, 1))
        rows = np.arange(stop - start)
        for i, picks in enumerate(columns):
            j = picks[start:stop]
            picked = pool[rows, j]
            pool[rows, j] = pool[:, i]
            pool[:, i] = picked
        # One Python list per position; zip turns them into the draw tuples.
        draws.extend(zip(*pool[:, :k].T.tolist()))
    return draws


def iterations_for_digits(digits: int) -> int:
    """Draw count that pins `digits` decimal places with probability 2*exp(-5).

    Solving the tail bound at tolerance 10^-digits for a fixed confidence
    gives N = 10^(2*digits + 1); digits=2 yields 10^5.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits!r}")
    exponent = 2 * digits + 1
    # MAX_DRAWS is 10^18. Compare exponents: computing 10**exponent itself
    # takes minutes for huge digits.
    if exponent > 18:
        raise OverflowError(
            f"10^{exponent} draws exceeds the 64-bit budget range; "
            f"digits={digits} is not a practical request"
        )
    return 10**exponent
