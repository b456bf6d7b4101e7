import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucompare.designs import (
    _POOL_CHUNK_ELEMENTS,
    hypergeometric_weights,
    iterations_for_digits,
    make_stream,
    sample_ordered_subsets,
)

from support import approximation_error_bound, kfold_design


def sample_ordered_subset(n: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Reference sampler: one uniform ordered k-subset of {1..n}.

    Partial Fisher-Yates with one generator call per position; the batched
    sampler must consume the stream the same way for a batch of one.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    pool = list(range(1, n + 1))
    out = []
    for i in range(k):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
        out.append(pool[i])
    return tuple(out)


def sample_ordered_subsets_reference(
    n: int, k: int, count: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Reference batch sampler: the same k column draws, one Fisher-Yates per draw."""
    columns = [rng.integers(i, n, size=count) for i in range(k)]
    draws = []
    for d in range(count):
        pool = list(range(1, n + 1))
        for i in range(k):
            j = int(columns[i][d])
            pool[i], pool[j] = pool[j], pool[i]
        draws.append(tuple(pool[:k]))
    return draws


class TestHypergeometricWeights:
    def test_small_case(self):
        w = hypergeometric_weights(4, 2)
        assert w.alpha == pytest.approx((1 / 6, 4 / 6, 1 / 6), abs=1e-15)

    def test_m_equals_n(self):
        w = hypergeometric_weights(3, 3)
        assert w.alpha == (0.0, 0.0, 0.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        m_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sums_to_one(self, n, m_frac):
        m = max(1, round(m_frac * n))
        w = hypergeometric_weights(n, m)
        assert math.fsum(w.alpha) == pytest.approx(1.0, abs=1e-12)
        assert all(a >= 0.0 for a in w.alpha)

    @pytest.mark.parametrize("m", [2, 3])
    def test_limit_toward_m_squared(self, m):
        # n*alpha_1 and n*(1 - alpha_0) both approach (g+1)^2 from below,
        # with the relative error shrinking as n grows.
        previous_err_a1 = previous_err_a0 = math.inf
        for n in (10**3, 10**4, 10**5, 10**6):
            w = hypergeometric_weights(n, m)
            err_a1 = abs(n * w.alpha[1] - m * m) / (m * m)
            err_a0 = abs(n * (1.0 - w.alpha[0]) - m * m) / (m * m)
            assert err_a1 < previous_err_a1
            assert err_a0 < previous_err_a0
            previous_err_a1, previous_err_a0 = err_a1, err_a0
        assert previous_err_a1 < 1e-2
        assert previous_err_a0 < 1e-2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hypergeometric_weights(3, 0)
        with pytest.raises(ValueError):
            hypergeometric_weights(3, 4)


class TestKfoldDesign:
    def test_two_fold(self):
        got = [(e.learn, e.test) for e in kfold_design(4, 2)]
        assert got == [((3, 4), 1), ((3, 4), 2), ((1, 2), 3), ((1, 2), 4)]

    def test_leave_one_out(self):
        got = [(e.learn, e.test) for e in kfold_design(3, 2)]
        assert got == [((2, 3), 1), ((1, 3), 2), ((1, 2), 3)]

    def test_indivisible_block_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            kfold_design(5, 2)

    def test_every_index_tested_once(self):
        design = kfold_design(9, 6)
        assert sorted(e.test for e in design) == list(range(1, 10))
        for e in design:
            assert e.test not in e.learn
            assert len(e.learn) == 6

    def test_leave_one_out_matches_maximal_structure(self):
        # Forgetting order, leave-one-out folds are exactly the full set of
        # (n-1)-subsets paired with their complements.
        for n in range(3, 8):
            folds = {(frozenset(e.learn), e.test) for e in kfold_design(n, n - 1)}
            expected = {
                (frozenset(set(range(1, n + 1)) - {t}), t) for t in range(1, n + 1)
            }
            assert folds == expected


class TestSampleOrderedSubset:
    def test_full_permutation(self):
        rng = make_stream(1)
        draw = sample_ordered_subset(5, 5, rng)
        assert sorted(draw) == [1, 2, 3, 4, 5]

    def test_deterministic_given_seed(self):
        a = [sample_ordered_subset(10, 3, make_stream(9)) for _ in range(5)]
        b = [sample_ordered_subset(10, 3, make_stream(9)) for _ in range(5)]
        # same fresh stream each call -> identical first draw; consecutive
        # draws on one stream differ
        assert a[0] == b[0]
        rng = make_stream(9)
        seq = [sample_ordered_subset(10, 3, rng) for _ in range(5)]
        assert len(set(seq)) > 1

    def test_uniform_frequencies(self):
        # 60000 draws of ordered pairs from {1..4}: 12 outcomes, expected
        # 5000 each; allow 3 binomial standard deviations.
        rng = make_stream(123)
        counts = Counter(sample_ordered_subset(4, 2, rng) for _ in range(60000))
        assert len(counts) == 12
        expected = 60000 / 12
        sd = math.sqrt(60000 * (1 / 12) * (11 / 12))
        for count in counts.values():
            assert abs(count - expected) <= 3 * sd

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_ordered_subset(3, 0, make_stream(0))
        with pytest.raises(ValueError):
            sample_ordered_subset(3, 4, make_stream(0))


class TestSampleOrderedSubsets:
    def test_shape_and_membership(self):
        draws = sample_ordered_subsets(9, 4, 25, make_stream(3))
        assert len(draws) == 25
        for draw in draws:
            assert len(draw) == 4
            assert len(set(draw)) == 4
            assert all(1 <= i <= 9 for i in draw)

    def test_full_permutation(self):
        draws = sample_ordered_subsets(5, 5, 30, make_stream(1))
        for draw in draws:
            assert sorted(draw) == [1, 2, 3, 4, 5]
        assert len(set(draws)) > 1

    def test_single_draw_matches_scalar_sampler(self):
        # A batch of one consumes the stream exactly like the scalar
        # version, so the results agree element for element.
        for seed in range(10):
            batch = sample_ordered_subsets(10, 3, 1, make_stream(seed))
            single = sample_ordered_subset(10, 3, make_stream(seed))
            assert batch == [single]

    @pytest.mark.parametrize(
        "n, k, count",
        [
            (60, 12, 10_000),
            (200, 42, 10),
            # Three full chunks of the shuffle pool and a partial fourth.
            (60, 6, 3 * (_POOL_CHUNK_ELEMENTS // 60) + 5),
            # Rows so long that a chunk holds a single draw.
            (_POOL_CHUNK_ELEMENTS // 2 + 1, 5, 3),
            # Full permutations.
            (30, 30, 1_000),
        ],
    )
    def test_batch_matches_reference_draw_for_draw(self, n, k, count):
        for seed in (0, 5):
            batch = sample_ordered_subsets(n, k, count, make_stream(seed))
            assert batch == sample_ordered_subsets_reference(n, k, count, make_stream(seed))
            assert all(type(draw) is tuple for draw in batch)
            assert all(type(i) is int for draw in batch for i in draw)

    def test_deterministic_given_seed(self):
        a = sample_ordered_subsets(12, 5, 40, make_stream(21))
        b = sample_ordered_subsets(12, 5, 40, make_stream(21))
        assert a == b
        assert len(set(a)) > 1

    def test_uniform_frequencies(self):
        counts = Counter(sample_ordered_subsets(4, 2, 60000, make_stream(123)))
        assert len(counts) == 12
        expected = 60000 / 12
        sd = math.sqrt(60000 * (1 / 12) * (11 / 12))
        for count in counts.values():
            assert abs(count - expected) <= 3 * sd

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_ordered_subsets(3, 0, 5, make_stream(0))
        with pytest.raises(ValueError):
            sample_ordered_subsets(3, 4, 5, make_stream(0))
        with pytest.raises(ValueError):
            sample_ordered_subsets(3, 2, 0, make_stream(0))


class TestIterationsForDigits:
    def test_values(self):
        assert iterations_for_digits(1) == 10**3
        assert iterations_for_digits(2) == 10**5
        assert iterations_for_digits(3) == 10**7

    def test_bound_at_requested_tolerance(self):
        # At tolerance 10^-d with 10^(2d+1) draws the bound is 2*exp(-5),
        # independent of d.
        for d in (1, 2, 3):
            bound = approximation_error_bound(10.0**-d, iterations_for_digits(d))
            assert bound == pytest.approx(2.0 * math.exp(-5.0), abs=1e-12)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            iterations_for_digits(0)
        with pytest.raises(OverflowError):
            iterations_for_digits(9)

    def test_huge_digits_rejected_before_the_power(self):
        # 10^(2*10^18 + 1) could never be computed; the exponent is checked first.
        started = time.perf_counter()
        with pytest.raises(OverflowError, match="10\\^2000000000000000001 draws"):
            iterations_for_digits(10**18)
        assert time.perf_counter() - started < 1.0
        assert iterations_for_digits(8) == 10**17


def test_error_bound_monotone_in_draws():
    assert approximation_error_bound(0.1, 2000) == pytest.approx(
        2.0 * math.exp(-10.0), rel=1e-15
    )
    assert approximation_error_bound(0.1, 4000) < approximation_error_bound(0.1, 2000)
    with pytest.raises(ValueError):
        approximation_error_bound(0.0, 10)
    with pytest.raises(ValueError):
        approximation_error_bound(0.1, 0)
