import math

import pytest

from ucompare import oracle
from ucompare.dataset import Observation
from ucompare.designs import BudgetExceededError, make_stream
from ucompare.estimators import EstimatorConfig, estimate_delta
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import constant_learner, knn_learner
from ucompare.oracle import (
    BALANCED_LABELS,
    MIXED_LABELS,
    DiscreteDistribution,
    builtin_scenarios,
    exact_estimator_moments,
    expected_phi0,
    run_checks,
    true_delta,
    true_kappa_c,
    true_theta2,
)

from support import sample_dataset, squared_point_variance

TWO_ATOMS = DiscreteDistribution.from_rows([((0.0,), 0, 0.6), ((1.0,), 1, 0.4)])


def knn_vs_const(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(knn_learner(1), constant_learner(0), g=g)


def const_pair(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(constant_learner(1), constant_learner(0), g=g)


class TestDiscreteDistribution:
    def test_from_rows_roundtrip(self):
        assert TWO_ATOMS.support_size == 2
        assert TWO_ATOMS.observations == (
            Observation((0.0,), 0),
            Observation((1.0,), 1),
        )
        assert TWO_ATOMS.probabilities == (0.6, 0.4)

    def test_needs_two_atoms(self):
        with pytest.raises(ValueError, match="atoms"):
            DiscreteDistribution.from_rows([((0.0,), 0, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteDistribution.from_rows([((0.0,), 0, 1.0), ((1.0,), 1, 0.0)])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution.from_rows([((0.0,), 0, 0.6), ((1.0,), 1, 0.5)])


class TestSampleDataset:
    def test_shape_and_support(self):
        data = sample_dataset(TWO_ATOMS, 40, make_stream(1))
        assert data.n == 40
        support = set(TWO_ATOMS.observations)
        assert all(obs in support for obs in data.observations)

    def test_deterministic_given_stream(self):
        first = sample_dataset(TWO_ATOMS, 25, make_stream(3, (1,)))
        second = sample_dataset(TWO_ATOMS, 25, make_stream(3, (1,)))
        assert first.observations == second.observations

    def test_frequencies_roughly_match_weights(self):
        data = sample_dataset(TWO_ATOMS, 4000, make_stream(11))
        share = sum(obs.y for obs in data.observations) / data.n
        assert share == pytest.approx(0.4, abs=0.03)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_dataset(TWO_ATOMS, 0, make_stream(0))


class TestPopulationQuantities:
    def test_identical_learners_have_zero_difference(self):
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        assert true_delta(TWO_ATOMS, kernel) == 0.0

    def test_constant_pair_difference_is_one_minus_two_q(self):
        # P(y=1) is 1/2 on the balanced atoms and 3/8 on the mixed ones.
        assert abs(true_delta(BALANCED_LABELS, const_pair())) <= 1e-15
        assert true_delta(MIXED_LABELS, const_pair()) == pytest.approx(0.25, abs=1e-15)

    def test_two_atom_hand_value(self):
        # Nearest neighbour misses when learn and test atoms disagree
        # (2 * 0.6 * 0.4), the constant-0 rule misses the y=1 mass (0.4):
        # 0.48 - 0.40 = 0.08.
        assert true_delta(TWO_ATOMS, knn_vs_const()) == pytest.approx(0.08, abs=1e-15)

    def test_symmetrized_mean_matches_pointwise_mean(self):
        for dist in (TWO_ATOMS, MIXED_LABELS):
            for kernel in (knn_vs_const(1), knn_vs_const(2), const_pair(1)):
                assert expected_phi0(dist, kernel) == pytest.approx(
                    true_delta(dist, kernel), abs=1e-14
                )

    def test_constant_pair_overlap_one_identity(self):
        # With constant learners the symmetrized kernel is the mean of
        # h = 1 - 2y over the window, so the overlap-one product mean is
        # E[h^2]/4 + 3 E[h]^2 / 4 with E[h^2] = 1.
        q = 0.375
        expected = 0.25 + 0.75 * (1 - 2 * q) ** 2
        assert true_kappa_c(MIXED_LABELS, const_pair(), 1) == pytest.approx(
            expected, abs=1e-15
        )

    def test_disjoint_window_mean_is_squared_difference(self):
        for dist in (TWO_ATOMS, MIXED_LABELS):
            for kernel in (knn_vs_const(1), knn_vs_const(2)):
                delta = true_delta(dist, kernel)
                assert true_theta2(dist, kernel) == pytest.approx(
                    delta * delta, abs=1e-14
                )

    def test_second_moments_dominate_squared_mean(self):
        for kernel in (knn_vs_const(1), knn_vs_const(2), const_pair(1)):
            theta2 = true_theta2(TWO_ATOMS, kernel)
            m = kernel.m
            assert true_kappa_c(TWO_ATOMS, kernel, m) >= theta2 - 1e-14
            assert true_kappa_c(TWO_ATOMS, kernel, 1) >= theta2 - 1e-14

    def test_overlap_out_of_range(self):
        with pytest.raises(ValueError, match="overlap"):
            true_kappa_c(TWO_ATOMS, knn_vs_const(), 0)

    def test_budget_enforced(self):
        # g = 12 needs 3^13 = 1,594,323 weighted tuples, over the default 10^6.
        with pytest.raises(BudgetExceededError, match="budget"):
            true_delta(MIXED_LABELS, knn_vs_const(12))


class TestExactEstimatorMoments:
    def test_constant_statistic(self):
        mean, var = exact_estimator_moments(TWO_ATOMS, 3, lambda _ds: 2.5)
        assert mean == 2.5
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_sample_mean_of_label_score(self):
        # h = 1 - 2y has mean 0.2 and variance 1 - 0.2^2 = 0.96 here; the
        # sample mean over n=3 rows keeps the mean and divides the variance.
        def statistic(ds):
            return math.fsum(1 - 2 * obs.y for obs in ds.observations) / ds.n

        mean, var = exact_estimator_moments(TWO_ATOMS, 3, statistic)
        assert mean == pytest.approx(0.2, abs=1e-14)
        assert var == pytest.approx(0.96 / 3, abs=1e-14)

    def test_expectation_and_variance_split(self):
        statistic = lambda ds: float(ds.observations[0].y)
        mean, var = exact_estimator_moments(TWO_ATOMS, 2, statistic)
        assert mean == pytest.approx(0.4, abs=1e-15)
        assert var == pytest.approx(0.24, abs=1e-15)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            exact_estimator_moments(TWO_ATOMS, 0, lambda _ds: 0.0)

    def test_budget_enforced(self):
        # n = 20 needs 2^20 = 1,048,576 datasets, over the default 10^6; the
        # check comes before the first one.
        calls = []
        with pytest.raises(BudgetExceededError):
            exact_estimator_moments(TWO_ATOMS, 20, calls.append)
        assert calls == []


class TestScaledVarianceApproachesLimit:
    def test_gap_shrinks_with_n(self):
        # n * Var(point estimate) approaches (g+1)^2 (kappa_1 - theta2) from
        # above as n grows; the gap must shrink monotonically.
        kernel = knn_vs_const()
        limit = 4 * (
            true_kappa_c(TWO_ATOMS, kernel, 1) - true_theta2(TWO_ATOMS, kernel)
        )
        config = EstimatorConfig(mode="complete")
        gaps = []
        for n in (4, 6, 8):
            _, var = exact_estimator_moments(
                TWO_ATOMS, n, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
            )
            gaps.append(n * var - limit)
        assert all(gap > 0 for gap in gaps)
        assert gaps[0] > gaps[1] > gaps[2]


class TestSelfChecks:
    def test_builtin_scenarios_all_pass(self):
        results = run_checks()
        assert len(results) == 8
        assert all(r.passed for r in results)
        assert max(abs(r.residual) for r in results) <= 1e-10

    def test_check_names_cover_all_angles(self):
        names = {r.name for r in run_checks()}
        assert names == {
            "symmetrized-kernel-mean",
            "point-estimate-unbiased",
            "variance-decomposition",
            "variance-estimate-unbiased",
        }

    def test_biased_square_is_caught(self, monkeypatch):
        # Replacing the disjoint-window estimate with the squared point
        # estimate biases the variance estimate; the unbiasedness check must
        # fail on every scenario, and only that check.
        monkeypatch.setattr(oracle, "estimate_variance", squared_point_variance)
        results = run_checks()
        failing = [r for r in results if not r.passed]
        assert failing
        assert all(r.name == "variance-estimate-unbiased" for r in failing)
        assert len(failing) == len(builtin_scenarios())

    def test_scenarios_have_descriptions(self):
        for scenario in builtin_scenarios():
            assert scenario.name
            assert scenario.description
            assert scenario.n >= scenario.kernel.m
