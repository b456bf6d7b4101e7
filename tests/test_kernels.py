import itertools
import math

import pytest

from ucompare import kernels
from ucompare.dataset import Dataset
from ucompare.estimators import (
    COMPLETE,
    INCOMPLETE,
    EstimatorConfig,
    estimate_delta,
    estimate_variance,
)
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import (
    Learner,
    Predictor,
    centroid_learner,
    constant_learner,
    knn_learner,
    stump_learner,
)
from ucompare.oracle import phi0_value, phi_value


class BatchCountingLearner(Learner):
    """Wraps a learner and logs (name, learning features) per predict_batch."""

    def __init__(self, name, inner, log):
        self.name, self.inner, self.log = name, inner, log

    def fit(self, learning_set):
        predictor = self.inner.fit(learning_set)
        entry = (self.name, tuple(sorted(obs.x for obs in learning_set)))
        log = self.log

        class Logged(Predictor):
            def predict(self, x):
                return predictor.predict(x)

            def predict_batch(self, xs):
                log.append(entry)
                return predictor.predict_batch(xs)

        return Logged()


def observations_at(data: Dataset, indices) -> tuple:
    """The observations at the given 1-based indices, in the given order."""
    return tuple(data.observation(i) for i in indices)


def four_rows() -> Dataset:
    return Dataset.from_arrays(
        [(0.0,), (1.0,), (2.0,), (3.0,)],
        [0, 1, 1, 0],
    )


def knn_vs_const(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(knn_learner(1), constant_learner(0), g=g)


class TestPointwiseKernel:
    def test_identical_learners_give_zero(self):
        data = four_rows()
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        for learn, test in [((2,), 1), ((1,), 4), ((3,), 2)]:
            assert KernelEvaluator(kernel, data).phi(learn, test) == 0.0

    def test_constant_pair_is_one_minus_two_y(self):
        data = four_rows()
        kernel = ComparisonKernel(constant_learner(1), constant_learner(0), g=1)
        for test in range(1, 5):
            learn = (1,) if test != 1 else (2,)
            value = KernelEvaluator(kernel, data).phi(learn, test)
            assert value == 1 - 2 * data.observation(test).y

    def test_nearest_neighbour_beats_constant_here(self):
        # Learning row (1.0, 1), testing row (2.0, 1): the nearest neighbour
        # is right, the constant-0 rule is wrong, so the difference is -1.
        data = four_rows()
        value = KernelEvaluator(knn_vs_const(), data).phi((2,), 3)
        assert value == -1.0

    def test_wrong_learning_size_rejected(self):
        data = four_rows()
        with pytest.raises(ValueError, match="learning"):
            phi_value(knn_vs_const(), observations_at(data, (1, 2)), data.observation(3))


class TestSymmetrizedKernel:
    def test_two_point_average_by_hand(self):
        # Test position 1 gives +1, test position 2 gives 0 (both predictors
        # miss the label 1), so the symmetrized value is 1/2.
        data = four_rows()
        assert KernelEvaluator(knn_vs_const(), data).phi0((1, 2)) == 0.5

    def test_constant_pair_averages_labels(self):
        data = four_rows()
        kernel = ComparisonKernel(constant_learner(1), constant_learner(0), g=2)
        for members in itertools.combinations(range(1, 5), 3):
            expected = math.fsum(
                1 - 2 * data.observation(i).y for i in members
            ) / 3
            value = KernelEvaluator(kernel, data).phi0(members)
            assert value == pytest.approx(expected, abs=1e-15)

    def test_rotation_average_equals_full_permutation_average(self):
        data = Dataset.from_arrays(
            [(0.0, 1.0), (1.0, 0.5), (2.0, -1.0), (0.5, 2.0)],
            [0, 1, 1, 0],
        )
        kernel = ComparisonKernel(stump_learner(), centroid_learner(), g=2)
        for members in itertools.combinations(range(1, 5), 3):
            obs = observations_at(data, members)
            by_rotation = phi0_value(kernel, obs)
            orderings = [
                phi_value(kernel, perm[:2], perm[2])
                for perm in itertools.permutations(obs)
            ]
            assert by_rotation == pytest.approx(
                math.fsum(orderings) / len(orderings), abs=1e-15
            )

    def test_bounded_by_one_for_zero_one_loss(self):
        data = four_rows()
        for kernel in (knn_vs_const(1), knn_vs_const(2)):
            for members in itertools.combinations(range(1, 5), kernel.m):
                assert abs(KernelEvaluator(kernel, data).phi0(members)) <= 1.0

    def test_wrong_subset_size_rejected(self):
        data = four_rows()
        with pytest.raises(ValueError):
            phi0_value(knn_vs_const(2), observations_at(data, (1, 2)))


class TestProductKernels:
    def test_overlap_windows_multiply(self):
        data = four_rows()
        kernel = knn_vs_const(1)
        first = phi0_value(kernel, observations_at(data, (1, 2)))
        second = phi0_value(kernel, observations_at(data, (2, 3)))
        assert KernelEvaluator(kernel, data).product((1, 2, 3), 1) == first * second

    def test_full_overlap_squares(self):
        data = four_rows()
        kernel = knn_vs_const(1)
        value = phi0_value(kernel, observations_at(data, (1, 2)))
        assert KernelEvaluator(kernel, data).product((1, 2), 2) == value * value

    def test_disjoint_windows_multiply(self):
        data = four_rows()
        kernel = knn_vs_const(1)
        first = phi0_value(kernel, observations_at(data, (1, 2)))
        second = phi0_value(kernel, observations_at(data, (3, 4)))
        assert KernelEvaluator(kernel, data).product((1, 2, 3, 4), 0) == first * second

    def test_overlap_out_of_range_rejected(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="overlap must lie"):
            ev.product((1,), 3)
        with pytest.raises(ValueError, match="overlap must lie"):
            ev.product((1, 2, 3, 4, 5), -1)

    def test_wrong_index_count_rejected(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="expected"):
            ev.product((1, 2, 3, 4), 1)

    def test_repeated_indices_rejected(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 2, 1, 3), 0)


class TestKernelEvaluator:
    def test_phi0_ignores_index_order(self):
        data = four_rows()
        ev = KernelEvaluator(knn_vs_const(2), data)
        reference = ev.phi0((1, 2, 3))
        for perm in itertools.permutations((1, 2, 3)):
            assert ev.phi0(perm) == reference

    def test_equal_valued_rows_share_results(self):
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,)],
            [0, 1, 1, 0],
        )
        ev = KernelEvaluator(knn_vs_const(1), data)
        # Rows 1 and 4 carry the same observation, so any split using one is
        # interchangeable with the other.
        assert ev.phi((1,), 2) == ev.phi((4,), 2)
        assert ev.phi0((1, 3)) == ev.phi0((4, 3))

    def test_equal_valued_subsets_share_one_fit(self):
        # Rows 1 and 4 carry observation A, rows 2 and 5 carry B, row 3 C.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (1.0,)],
            [0, 1, 1, 0, 1],
        )
        fitted = []

        class CountingLearner(Learner):
            def fit(self, learning_set):
                fitted.append(tuple(sorted((obs.x, obs.y) for obs in learning_set)))
                return knn_learner(1).fit(learning_set)

        kernel = ComparisonKernel(CountingLearner(), constant_learner(0), g=2)
        ev = KernelEvaluator(kernel, data)
        value = ev.phi0((1, 2, 3))  # fits {B,C}, {A,C}, {A,B}
        assert len(fitted) == 3
        assert ev.phi0((4, 5, 3)) == value  # {A,B,C} again: no fit
        ev.phi((4, 2), 5)  # {A,B}
        ev.phi_complement_total((5, 3))  # {B,C}
        assert len(fitted) == 3
        ev.phi_complement_total((1, 4))  # {A,A} is new
        ev.phi0((1, 4, 2))  # learns on {A,B} and {A,A}, both fitted
        assert len(fitted) == 4
        ev.phi((2, 5), 1)  # {B,B} is new
        assert len(fitted) == len(set(fitted)) == 5

    def test_bad_indices_raise_index_error_after_caching(self):
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,)],
            [0, 1, 1, 0],
        )
        ev = KernelEvaluator(knn_vs_const(1), data)
        ev.phi0((1, 2))
        ev.phi((1,), 2)
        ev.phi_complement_total((1,))
        for bad in (0, -1, data.n + 1):
            with pytest.raises(IndexError):
                ev.phi0((bad, 2))
            with pytest.raises(IndexError):
                ev.phi((bad,), 2)
            with pytest.raises(IndexError):
                ev.phi((2,), bad)
            with pytest.raises(IndexError):
                ev.phi_complement_total((bad,))

    def test_checks_run_on_memo_hits(self):
        # Rows 1 and 4 carry the same observation, so (1, 1, 2) has the key of
        # the cached (1, 4, 2): the memo must not answer for repeated indices.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (3.0,)],
            [0, 1, 1, 0, 0],
        )
        ev = KernelEvaluator(knn_vs_const(2), data)
        ev.phi0((1, 4, 2))
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0((1, 1, 2))
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 1, 2, 4), 2)
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 4, 2, 1, 4, 2), 0)
        for bad in (0, -1, data.n + 1):
            with pytest.raises(IndexError):
                ev.phi0((1, bad, 2))

    def test_request_probe_agrees_with_class_key(self):
        # Rows 4 and 5 repeat rows 1 and 2, so (1, 2, 6) is an ascending
        # request of class representatives, answered by the request itself
        # once cached, and (4, 5, 6), (6, 5, 1) name the same multiset.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (1.0,), (3.0,)],
            [0, 1, 1, 0, 1, 0],
        )
        kernel = knn_vs_const(2)
        expected = phi0_value(kernel, observations_at(data, (1, 2, 6)))
        assert expected != 0.0
        equal_requests = [(1, 2, 6), (4, 5, 6), (6, 5, 1), [1, 2, 6], [6, 4, 2]]
        for first in range(len(equal_requests)):
            ev = KernelEvaluator(kernel, data)
            order = equal_requests[first:] + equal_requests[:first]
            assert [ev.phi0(r) for r in order + order] == [expected] * (2 * len(order))

    def test_complement_total_matches_explicit_sum(self):
        data = Dataset.from_arrays(
            [(float(i), float((i * 7) % 5)) for i in range(10)],
            [(i * 3) % 2 for i in range(10)],
        )
        kernel = ComparisonKernel(knn_learner(3), centroid_learner(), g=2)
        ev = KernelEvaluator(kernel, data)
        for learn in [(1, 2), (9, 10), (4, 7)]:
            held_out = [i for i in range(1, 11) if i not in learn]
            assert ev.phi_complement_total(learn) == math.fsum(
                ev.phi(learn, t) for t in held_out
            )

    def test_equal_multisets_share_one_complement_total(self):
        # Rows 1, 4 and 7 carry observation A, rows 2 and 5 carry B.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (1.0,), (3.0,), (0.0,)],
            [0, 1, 1, 0, 1, 0, 0],
        )
        batches = []
        kernel = ComparisonKernel(
            BatchCountingLearner("a", knn_learner(1), batches),
            BatchCountingLearner("b", stump_learner(), batches),
            g=2,
        )
        ev = KernelEvaluator(kernel, data)
        groups = [[(1, 2), (4, 5), (7, 2), (5, 1)], [(1, 4), (4, 7), (7, 1)], [(3, 6)]]
        for group in groups:
            totals = {ev.phi_complement_total(learn) for learn in group}
            assert len(totals) == 1
            for learn in group:
                held_out = [t for t in range(1, data.n + 1) if t not in learn]
                assert ev.phi_complement_total(learn) == sum(ev.phi(learn, t) for t in held_out)
                assert isinstance(ev.phi_complement_total(learn), int)
        assert sorted(batches) == sorted(
            (name, multiset)
            for name in "ab"
            for multiset in [((0.0,), (1.0,)), ((0.0,), (0.0,)), ((2.0,), (3.0,))]
        )

    def test_complement_total_passes_predict_batch_the_rows_phi_passes(self):
        # The predictor looks each row up by value, so it fails on any row
        # that is not the hashable tuple Observation.x that phi passes.
        class MemorizingLearner(Learner):
            def fit(self, learning_set):
                table = {obs.x: obs.y for obs in learning_set}

                class Lookup(Predictor):
                    def predict(self, x):
                        return table.get(x, 0)

                return Lookup()

        data = Dataset.from_arrays([(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)] * 2, [1, 0, 1] * 2)
        kernel = ComparisonKernel(MemorizingLearner(), constant_learner(0), g=2)
        ev = KernelEvaluator(kernel, data)
        for learn in itertools.permutations(range(1, data.n + 1), 2):
            held_out = [t for t in range(1, data.n + 1) if t not in learn]
            assert ev.phi_complement_total(learn) == sum(ev.phi(learn, t) for t in held_out)
        delta_hat = estimate_delta(ev, EstimatorConfig(draws=50, seed=1, mode=INCOMPLETE))
        assert -1.0 <= delta_hat <= 0.0

    @pytest.mark.parametrize("mode", [COMPLETE, INCOMPLETE])
    def test_predictor_without_predict_batch(self, mode):
        # Any fit(observations) -> predictor with predict(x) will do; this
        # one is not a Predictor, so it has no predict_batch.
        class DuckLearner:
            def fit(self, learning_set):
                inner = stump_learner().fit(learning_set)

                class Duck:
                    def predict(self, x):
                        return inner.predict(x)

                return Duck()

        data = Dataset.from_arrays(
            [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (3.0, 1.5), (4.0, 0.5), (5.0, 3.0)],
            [0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=20, seed=3, mode=mode)

        def delta(learner_a):
            kernel = ComparisonKernel(learner_a, constant_learner(0), g=2)
            return estimate_delta(KernelEvaluator(kernel, data), config)

        assert delta(DuckLearner()) == delta(stump_learner()) != 0.0

    def test_complement_total_checks_learning_size(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="learning"):
            ev.phi_complement_total((1, 2))
        ev = KernelEvaluator(knn_vs_const(2), four_rows())
        with pytest.raises(ValueError, match="distinct"):
            ev.phi_complement_total((1, 1))

    def test_phi_rejects_test_inside_learning_part(self):
        ev = KernelEvaluator(knn_vs_const(2), four_rows())
        with pytest.raises(ValueError, match="learning"):
            ev.phi((1, 2), 2)
        with pytest.raises(ValueError, match="distinct"):
            ev.phi((1, 1), 3)

    def test_phi0_rejects_repeats_and_bad_size(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0((1, 1))
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0((1, 2, 3))

    def test_subset_size_must_fit_sample(self):
        with pytest.raises(ValueError, match="exceeds"):
            KernelEvaluator(knn_vs_const(4), four_rows())

    def test_kernel_requires_positive_g(self):
        with pytest.raises(ValueError, match="g"):
            ComparisonKernel(knn_learner(1), constant_learner(0), g=0)


def eight_rows_of_five_atoms() -> Dataset:
    """Rows 1-5 are distinct; row 6 repeats row 1, row 7 row 2, row 8 row 4."""
    atoms = [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (0.5, 1.5), (1.5, 0.5)]
    labels = [0, 1, 1, 0, 1]
    rows = [0, 1, 2, 3, 4, 0, 1, 3]
    return Dataset.from_arrays([atoms[r] for r in rows], [labels[r] for r in rows])


class TestMemoBound:
    @pytest.mark.parametrize("mode", [COMPLETE, INCOMPLETE])
    def test_results_do_not_depend_on_the_bound(self, mode, monkeypatch):
        kernel = ComparisonKernel(knn_learner(1), stump_learner(), g=2)
        config = EstimatorConfig(draws=200, seed=3, mode=mode)

        def estimate():
            ev = KernelEvaluator(kernel, eight_rows_of_five_atoms())
            return estimate_delta(ev, config), estimate_variance(ev, config)

        expected = estimate()
        remember = kernels._remember
        sizes = []

        def recording_remember(memo, key, value):
            stored = remember(memo, key, value)
            sizes.append(len(memo))
            return stored

        monkeypatch.setattr(kernels, "MEMO_SIZE", 3)
        monkeypatch.setattr(kernels, "_remember", recording_remember)
        assert estimate() == expected
        # Far more inserts than the bound, and no memo ever above it.
        assert len(sizes) > 100
        assert max(sizes) == 3

    def test_learning_multiset_fitted_once_while_remembered(self, monkeypatch):
        monkeypatch.setattr(kernels, "MEMO_SIZE", 3)
        fitted = []

        class CountingLearner(Learner):
            def fit(self, learning_set):
                fitted.append(tuple(sorted((obs.x, obs.y) for obs in learning_set)))
                return knn_learner(1).fit(learning_set)

        data = eight_rows_of_five_atoms()
        ev = KernelEvaluator(ComparisonKernel(CountingLearner(), stump_learner(), g=2), data)
        total = ev.phi_complement_total((1, 2))
        assert total == sum(ev.phi((1, 2), t) for t in range(3, data.n + 1))
        ev.phi((6, 7), 3)  # the same multiset as rows (1, 2)
        assert len(fitted) == 1
        ev.phi((3, 4), 1)
        ev.phi((4, 5), 1)  # the memo now holds 3 multisets
        assert ev.phi_complement_total((7, 6)) == total
        assert len(fitted) == 3
        ev.phi((3, 5), 1)  # a fourth multiset empties the memo first
        assert len(fitted) == 4
        assert ev.phi_complement_total((1, 2)) == total
        assert len(fitted) == 5
