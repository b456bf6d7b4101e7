import dataclasses
import itertools
import math

import pytest

from ucompare.dataset import Dataset
from ucompare.designs import (
    BudgetExceededError,
    hypergeometric_weights,
    make_stream,
    sample_ordered_subsets,
)
from ucompare.estimators import (
    COMPLETE,
    INCOMPLETE,
    EstimatorConfig,
    SampleTooSmallError,
    _window_pairs,
    complete_u_statistic,
    estimate_delta,
    estimate_kappa_c,
    estimate_theta2,
    estimate_variance,
    incomplete_u_statistic,
)
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import constant_learner, knn_learner


def four_rows() -> Dataset:
    return Dataset.from_arrays(
        [(0.0,), (1.0,), (2.0,), (3.0,)],
        [0, 1, 1, 0],
    )


def six_rows() -> Dataset:
    return Dataset.from_arrays(
        [(0.0,), (1.0,), (2.0,), (3.0,), (4.0,), (5.0,)],
        [0, 1, 1, 0, 1, 0],
    )


def knn_vs_const(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(knn_learner(1), constant_learner(0), g=g)


def alternating_rows(n: int) -> Dataset:
    return Dataset.from_arrays([(float(i),) for i in range(n)], [i % 2 for i in range(n)])


def complete_config() -> EstimatorConfig:
    return EstimatorConfig(mode=COMPLETE)


def knn_vs_const_on(data: Dataset, g: int = 1) -> KernelEvaluator:
    return KernelEvaluator(knn_vs_const(g), data)


class FitCounter:
    """Constant-0 learner that counts its fits."""

    def __init__(self):
        self.fits = 0
        self.inner = constant_learner(0)

    def fit(self, learning_set):
        self.fits += 1
        return self.inner.fit(learning_set)


class TestCompleteUStatistic:
    def test_constant_kernel(self):
        data = four_rows()
        assert complete_u_statistic(lambda _s: 1.0, data.n, 2) == 1.0

    def test_recovers_sample_variance(self):
        # The kernel (v_i - v_j)^2 / 2 averaged over all pairs is the usual
        # unbiased sample variance.
        values = {1: 1.0, 2: 3.0, 3: 7.0}
        data = Dataset.from_arrays([(v,) for v in values.values()], [0, 1, 0])

        def kernel_eval(members):
            i, j = members
            return (values[i] - values[j]) ** 2 / 2.0

        mean = sum(values.values()) / 3
        sample_var = sum((v - mean) ** 2 for v in values.values()) / 2
        assert complete_u_statistic(kernel_eval, data.n, 2) == pytest.approx(
            sample_var, abs=1e-12
        )

    def test_m_equals_n_single_subset(self):
        data = four_rows()
        assert complete_u_statistic(lambda s: float(len(s)), data.n, 4) == 4.0

    def test_budget_enforced(self):
        # C(1415, 2) = 1,000,405 pairs is just over the enumeration budget.
        seen = []
        with pytest.raises(BudgetExceededError, match=r"C\(1415,2\) = 1000405 .* budget"):
            complete_u_statistic(seen.append, 1415, 2)
        assert seen == []

    def test_degree_out_of_range(self):
        data = four_rows()
        with pytest.raises(ValueError):
            complete_u_statistic(lambda _s: 0.0, data.n, 0)
        with pytest.raises(ValueError):
            complete_u_statistic(lambda _s: 0.0, data.n, 5)


class TestIncompleteUStatistic:
    def test_single_draw_matches_kernel(self):
        data = four_rows()
        expected_draw = sample_ordered_subsets(4, 2, 1, make_stream(7, (9,)))[0]
        seen = []

        def kernel_eval(members):
            seen.append(members)
            return float(members[0])

        value = incomplete_u_statistic(kernel_eval, data.n, 2, 1, make_stream(7, (9,)))
        assert seen == [expected_draw]
        assert value == float(expected_draw[0])

    def test_same_stream_reproduces(self):
        data = four_rows()
        kernel_eval = lambda s: float(sum(s))
        first = incomplete_u_statistic(kernel_eval, data.n, 2, 50, make_stream(3, (1,)))
        second = incomplete_u_statistic(kernel_eval, data.n, 2, 50, make_stream(3, (1,)))
        assert first == second

    def test_rejects_bad_arguments(self):
        data = four_rows()
        with pytest.raises(ValueError, match="draws"):
            incomplete_u_statistic(lambda _s: 0.0, data.n, 2, 0, make_stream(0))
        with pytest.raises(ValueError):
            incomplete_u_statistic(lambda _s: 0.0, data.n, 9, 1, make_stream(0))


class TestEstimateDelta:
    def test_identical_learners_give_zero(self):
        data = four_rows()
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        assert estimate_delta(KernelEvaluator(kernel, data), complete_config()) == 0.0

    def test_constant_pair_complete_value(self):
        # With constant learners the symmetrized kernel averages 1 - 2y over
        # the subset, so the complete statistic is the mean of 1 - 2y.
        data = Dataset.from_arrays([(0.0,), (1.0,), (2.0,)], [1, 0, 0])
        kernel = ComparisonKernel(constant_learner(1), constant_learner(0), g=1)
        value = estimate_delta(KernelEvaluator(kernel, data), complete_config())
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_four_row_complete_value(self):
        # Enumerated by hand: the six pairwise symmetrized values are
        # 1/2, 1/2, 0, -1, 1/2, 1/2, whose mean is 1/6.
        value = estimate_delta(knn_vs_const_on(four_rows()), complete_config())
        assert value == pytest.approx(1 / 6, abs=1e-15)

    def test_incomplete_tracks_complete(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(10)],
            [0, 1, 1, 0, 1, 0, 0, 1, 1, 0],
        )
        evaluator = knn_vs_const_on(data)
        complete = estimate_delta(evaluator, complete_config())
        config = EstimatorConfig(draws=20_000, seed=42, mode=INCOMPLETE)
        incomplete = estimate_delta(evaluator, config)
        assert incomplete == pytest.approx(complete, abs=0.02)

    def test_incomplete_deterministic_across_runs(self):
        data = four_rows()
        config = EstimatorConfig(draws=500, seed=9, mode=INCOMPLETE)
        values = {estimate_delta(knn_vs_const_on(data), config) for _ in range(3)}
        assert len(values) == 1

    def test_shared_evaluator_matches_fresh(self):
        data = four_rows()
        kernel = knn_vs_const()
        config = EstimatorConfig(draws=200, seed=5, mode=INCOMPLETE)
        shared = KernelEvaluator(kernel, data)
        estimate_delta(shared, config)
        assert estimate_delta(shared, config) == estimate_delta(
            KernelEvaluator(kernel, data), config
        )

    def test_sample_too_small(self):
        data = Dataset.from_arrays([(0.0,), (1.0,)], [0, 1])
        with pytest.raises(SampleTooSmallError):
            estimate_delta(knn_vs_const_on(data, g=2), complete_config())

    def test_complete_budget_enforced(self):
        # C(1415, 2) pairs is just over the enumeration budget: no learner
        # may be fitted before the check fails.
        counter = FitCounter()
        kernel = ComparisonKernel(counter, constant_learner(1), g=1)
        evaluator = KernelEvaluator(kernel, alternating_rows(1415))
        with pytest.raises(BudgetExceededError, match=r"C\(1415,2\)"):
            estimate_delta(evaluator, complete_config())
        assert counter.fits == 0


class TestSecondMomentEstimates:
    def test_full_overlap_is_mean_squared_symmetrized_value(self):
        data = four_rows()
        kernel = knn_vs_const()
        ev = KernelEvaluator(kernel, data)
        expected = math.fsum(
            ev.phi0((i, j)) ** 2
            for i in range(1, 5)
            for j in range(i + 1, 5)
        ) / 6
        value = estimate_kappa_c(ev, 2, complete_config())
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_overlap_one_complete_value(self):
        # Hand enumeration over the four triples gives
        # (-1/4 + 1/12 + 1/12 - 1/4) / 4 = -1/12.
        value = estimate_kappa_c(knn_vs_const_on(four_rows()), 1, complete_config())
        assert value == pytest.approx(-1 / 12, abs=1e-15)

    @pytest.mark.parametrize("g, c", [(1, c) for c in range(3)] + [(2, c) for c in range(4)])
    def test_overlap_matches_ordered_window_average(self, g, c):
        # The complete estimate picks window pairs within each subset; it
        # must equal the product kernel averaged over every ordered tuple.
        data = four_rows() if g == 1 else six_rows()
        ev = knn_vs_const_on(data, g)
        m = g + 1
        products = [
            ev.phi0(t[:m]) * ev.phi0(t[m - c :])
            for t in itertools.permutations(range(1, data.n + 1), 2 * m - c)
        ]
        expected = math.fsum(products) / len(products)
        if c == 0:
            value = estimate_theta2(ev, complete_config())
        else:
            value = estimate_kappa_c(ev, c, complete_config())
        assert value == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_window_pairs_keep_the_nested_loop_order(self, m):
        # The window pairs fix the summation order of the complete product
        # statistic, so they must come in the order of this nested loop for
        # its fsum to stay bit-identical. The second window lists its
        # members at ascending positions.
        for c in range(m + 1):
            members = (40, 7, 23, 11, 35, 2, 19, 30)[: 2 * m - c]
            expected = []
            for first in itertools.combinations(members, m):
                rest = tuple(i for i in members if i not in first)
                for shared in itertools.combinations(first, c):
                    second = tuple(i for i in members if i in shared + rest)
                    expected.append((first, second))
            pairs = [(first(members), second(members)) for first, second in _window_pairs(m, c)]
            assert pairs == expected
            assert len(pairs) == math.comb(2 * m - c, c) * math.comb(2 * m - 2 * c, m - c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_complete_mode_requests_ascending_subsets(self, g):
        # Every phi0 request of a complete run is an ascending tuple, so on
        # duplicate-free data the evaluator answers each repeat by the
        # request itself, and the requests are exactly the C(n, g + 1)
        # subsets.
        n = 2 * g + 3
        ev = knn_vs_const_on(alternating_rows(n), g)
        requests = []
        inner = ev.phi0

        def logged(members):
            requests.append(members)
            return inner(members)

        ev.phi0 = logged
        estimate_delta(ev, complete_config())
        estimate_variance(ev, complete_config())
        assert all(type(r) is tuple and list(r) == sorted(r) for r in requests)
        assert len(set(requests)) == math.comb(n, g + 1)

    def test_disjoint_window_complete_value(self):
        # The three pairings of {1,2,3,4} into two disjoint pairs give
        # products 1/4, 1/4, 0, so the mean is 1/6.
        value = estimate_theta2(knn_vs_const_on(four_rows()), complete_config())
        assert value == pytest.approx(1 / 6, abs=1e-15)

    def test_overlap_out_of_range(self):
        with pytest.raises(ValueError, match="overlap"):
            estimate_kappa_c(knn_vs_const_on(four_rows()), 0, complete_config())
        with pytest.raises(ValueError, match="overlap"):
            estimate_kappa_c(knn_vs_const_on(four_rows()), 3, complete_config())

    def test_disjoint_windows_need_enough_rows(self):
        data = Dataset.from_arrays([(0.0,), (1.0,), (2.0,)], [0, 1, 0])
        with pytest.raises(SampleTooSmallError, match=r"n >= 2g \+ 2"):
            estimate_theta2(knn_vs_const_on(data), complete_config())


class TestEstimateVariance:
    def test_four_row_complete_components(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(knn_vs_const_on(four_rows()), complete_config())
        assert result.kappa_hats[0] == pytest.approx(-1 / 12, abs=1e-15)
        assert result.kappa_hats[1] == pytest.approx(1 / 3, abs=1e-15)
        assert result.theta2_hat == pytest.approx(1 / 6, abs=1e-15)
        assert result.weights.alpha == pytest.approx((1 / 6, 4 / 6, 1 / 6), abs=1e-15)
        # v = (4/6)(-1/12) + (1/6)(1/3) - (5/6)(1/6) = -5/36: legitimately
        # negative in this tiny sample, flagged rather than clamped.
        assert result.v_hat == pytest.approx(-5 / 36, abs=1e-15)
        assert result.nonpositive

    def test_combination_matches_manual_weights(self):
        data = four_rows()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(knn_vs_const_on(data), complete_config())
        weights = hypergeometric_weights(4, 2)
        manual = math.fsum(
            [
                weights.alpha[1] * result.kappa_hats[0],
                weights.alpha[2] * result.kappa_hats[1],
                -(1.0 - weights.alpha[0]) * result.theta2_hat,
            ]
        )
        assert result.v_hat == pytest.approx(manual, abs=1e-16)

    def test_standalone_estimates_match_variance_internals(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=300, seed=17, mode=INCOMPLETE)
        result = estimate_variance(knn_vs_const_on(data), config)
        assert result.kappa_hats == (
            estimate_kappa_c(knn_vs_const_on(data), 1, config),
            estimate_kappa_c(knn_vs_const_on(data), 2, config),
        )
        assert result.theta2_hat == estimate_theta2(knn_vs_const_on(data), config)

    def test_identical_learners_degenerate_and_warn(self):
        data = four_rows()
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(KernelEvaluator(kernel, data), complete_config())
        assert result.v_hat == 0.0
        assert result.nonpositive
        assert result.degeneracy_warning

    def positive_estimate(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=300, seed=17, mode=INCOMPLETE)
        result = estimate_variance(knn_vs_const_on(data), config)
        assert result.v_hat > 0.0
        assert not result.nonpositive and not result.degeneracy_warning
        return result

    def test_nonpositive_follows_v_hat(self):
        assert dataclasses.replace(self.positive_estimate(), v_hat=-1.0).nonpositive

    def test_degeneracy_warning_follows_kappa_and_theta2(self):
        result = self.positive_estimate()
        raised = dataclasses.replace(result, theta2_hat=result.kappa_hats[0] + 0.5)
        assert raised.degeneracy_warning

    def test_negative_difference_warns_at_or_below_tolerance(self):
        # Complete mode on four rows: kappa_1 = -1/12 and theta2 = 1/6, a
        # difference far below zero, not one near it.
        with pytest.warns(
            RuntimeWarning,
            match=r"= -2\.500e-01 is at or below the tolerance 1\.0e-08; .* degenerate",
        ):
            result = estimate_variance(knn_vs_const_on(four_rows()), complete_config())
        assert result.degeneracy_warning

    def test_sample_too_small(self):
        data = four_rows()
        with pytest.raises(SampleTooSmallError, match="2g \\+ 2"):
            estimate_variance(knn_vs_const_on(data, g=2), complete_config())

    def test_complete_budget_checked_before_any_fit(self):
        # n = 30, g = 3: kappa_1 would need C(30,7) = 2,035,800 subsets.
        counter = FitCounter()
        kernel = ComparisonKernel(counter, constant_learner(1), g=3)
        evaluator = KernelEvaluator(kernel, alternating_rows(30))
        with pytest.raises(BudgetExceededError, match=r"C\(30,7\) = 2035800"):
            estimate_variance(evaluator, complete_config())
        assert counter.fits == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_incomplete_deterministic_across_runs(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 1, 0, 1, 0, 0, 1],
        )
        config = EstimatorConfig(draws=200, seed=2, mode=INCOMPLETE)
        results = [estimate_variance(knn_vs_const_on(data), config) for _ in range(3)]
        assert len({r.v_hat for r in results}) == 1
        assert len({r.kappa_hats for r in results}) == 1


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draws": 0},
            {"draws": -1},
            {"draws": 0, "mode": COMPLETE},
            {"mode": "partial"},
            {"mode": "COMPLETE"},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_defaults(self):
        config = EstimatorConfig()
        assert config.mode == INCOMPLETE
        assert config.draws == 100_000
        assert config.seed == 0
