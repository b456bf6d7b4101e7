import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucompare import estimators, kernels
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

from support import Refitting


class FitCountingLearner(Learner):
    """Wraps a learner and logs (name, learning features) per fit."""

    def __init__(self, name, inner, log):
        self.name, self.inner, self.log = name, inner, log

    def fit(self, learning_set):
        self.log.append((self.name, tuple(sorted(obs.x for obs in learning_set))))
        return self.inner.fit(learning_set)


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
        assert KernelEvaluator(kernel, data).product((1, 2), (2, 3)) == first * second

    def test_full_overlap_squares(self):
        data = four_rows()
        kernel = knn_vs_const(1)
        value = phi0_value(kernel, observations_at(data, (1, 2)))
        assert KernelEvaluator(kernel, data).product((1, 2)) == value * value

    def test_disjoint_windows_multiply(self):
        data = four_rows()
        kernel = knn_vs_const(1)
        first = phi0_value(kernel, observations_at(data, (1, 2)))
        second = phi0_value(kernel, observations_at(data, (3, 4)))
        assert KernelEvaluator(kernel, data).product((1, 2), (3, 4)) == first * second

    def test_wrong_index_count_rejected(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="need 2 distinct"):
            ev.product((1, 2, 3), (3, 4))
        with pytest.raises(ValueError, match="need 2 distinct"):
            ev.product((1, 2), (3,))

    def test_repeated_indices_rejected(self):
        ev = KernelEvaluator(knn_vs_const(1), four_rows())
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 1), (2, 3))
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 2), (3, 3))
        with pytest.raises(ValueError, match="distinct"):
            ev.product((2, 2))


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

    def test_fits_and_totals_share_one_key(self):
        # Rows 6, 7 and 8 repeat rows 1, 2 and 4, so a learning multiset
        # has several requests; the fit and the total of each are stored
        # under the same key.
        kernel = ComparisonKernel(Refitting(knn_learner(1)), Refitting(stump_learner()), g=2)
        ev = KernelEvaluator(kernel, eight_rows_of_five_atoms())
        estimate_delta(ev, EstimatorConfig(draws=200, seed=3, mode=INCOMPLETE))
        assert ev._totals and set(ev._learned) == set(ev._totals)

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
        # (1, 4, 2) is not its own key, so it is stored under itself too.
        assert list(ev) == [(1, 2, 4), (1, 4, 2)]
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0((1, 1, 2))
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0((4, 4, 2))
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 1, 2), (1, 2, 4))
        with pytest.raises(ValueError, match="distinct"):
            ev.product((1, 2, 4), (4, 2, 4))
        with pytest.raises(ValueError, match="distinct"):
            ev.phi0_keys(np.array([[1, 2, 4], [1, 1, 2]], dtype=np.int32))
        for bad in (0, -1, data.n + 1):
            with pytest.raises(IndexError):
                ev.phi0((1, bad, 2))
            with pytest.raises(IndexError):
                ev.phi0_keys(np.array([[1, bad, 2]], dtype=np.int32))

    def test_repeated_class_key_is_answered_by_the_lookup(self, monkeypatch):
        # Rows 1, 4 and 6 carry observation A, rows 2 and 5 carry B. The key
        # of {A, A, B} is (1, 2, 4): the first two rows of A and the first
        # of B. It is a valid request and its own key, so once stored it is
        # answered without entering __missing__, from any window of {A, A, B}.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (1.0,), (0.0,)],
            [0, 1, 1, 0, 1, 0],
        )
        kernel = knn_vs_const(2)
        expected = phi0_value(kernel, observations_at(data, (1, 2, 4)))
        misses = []
        missing = KernelEvaluator.__missing__

        def counted(evaluator, request):
            misses.append(request)
            return missing(evaluator, request)

        monkeypatch.setattr(KernelEvaluator, "__missing__", counted)
        ev = KernelEvaluator(kernel, data)
        assert ev.phi0((6, 5, 4)) == expected
        # The key, then the request, which is not its own key.
        assert list(ev) == [(1, 2, 4), (6, 5, 4)]
        assert ev.phi0((6, 5, 4)) == expected
        windows = np.array([[6, 5, 4], [4, 1, 2], [5, 1, 6], [2, 6, 4]], dtype=np.int32)
        keys = ev.phi0_keys(windows)
        assert keys == [(1, 2, 4)] * 4
        assert [ev.phi0(key) for key in keys] == [expected] * 4
        assert ev.product(keys[0], keys[1]) == ev.product(keys[2]) == expected * expected
        assert misses == [(6, 5, 4)]
        assert ev.phi0_evaluations == 1

    def test_request_probe_agrees_with_class_key(self):
        # Rows 4 and 5 repeat rows 1 and 2, so (1, 2, 6) is an ascending
        # request of class representatives, answered by the dict lookup
        # once cached, and (4, 5, 6), (6, 5, 1) name the same multiset.
        # Requests are tuples: a list is unhashable.
        data = Dataset.from_arrays(
            [(0.0,), (1.0,), (2.0,), (0.0,), (1.0,), (3.0,)],
            [0, 1, 1, 0, 1, 0],
        )
        kernel = knn_vs_const(2)
        expected = phi0_value(kernel, observations_at(data, (1, 2, 6)))
        assert expected != 0.0
        equal_requests = [(1, 2, 6), (4, 5, 6), (6, 5, 1)]
        for first in range(len(equal_requests)):
            ev = KernelEvaluator(kernel, data)
            order = equal_requests[first:] + equal_requests[:first]
            assert [ev.phi0(r) for r in order + order] == [expected] * (2 * len(order))
            for request in ([1, 2, 6], [6, 4, 2]):
                with pytest.raises(TypeError):
                    ev.phi0(request)

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
        fits = []
        kernel = ComparisonKernel(
            FitCountingLearner("a", knn_learner(1), fits),
            FitCountingLearner("b", stump_learner(), fits),
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
        assert sorted(fits) == sorted(
            (name, multiset)
            for name in "ab"
            for multiset in [((0.0,), (1.0,)), ((0.0,), (0.0,)), ((2.0,), (3.0,))]
        )

    def test_complement_total_passes_predict_the_rows_phi_passes(self):
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

    def test_predict_batch_is_never_called(self):
        # A learner without batches is fitted and predicted row by row
        # through predict, in the point estimate as in phi.
        class NoBatchLearner:
            def fit(self, learning_set):
                inner = stump_learner().fit(learning_set)

                class NoBatch(Predictor):
                    def predict(self, x):
                        return inner.predict(x)

                    def predict_batch(self, xs):
                        raise AssertionError("predict_batch called")

                return NoBatch()

        data = Dataset.from_arrays(
            [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (3.0, 1.5), (4.0, 0.5), (5.0, 3.0)],
            [0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=20, seed=3, mode=INCOMPLETE)
        evaluators = [
            KernelEvaluator(ComparisonKernel(learner, knn_learner(1), g=2), data)
            for learner in (NoBatchLearner(), Refitting(stump_learner()))
        ]
        assert estimate_delta(evaluators[0], config) == estimate_delta(evaluators[1], config)
        for learn in itertools.permutations(range(1, data.n + 1), 2):
            assert evaluators[0].phi_complement_total(learn) == (
                evaluators[1].phi_complement_total(learn)
            )

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
        with pytest.raises(ValueError, match="need windows of 2"):
            ev.phi0_keys(np.array([[1, 2, 3]], dtype=np.int32))
        with pytest.raises(ValueError, match="need windows of 2"):
            ev.phi0_keys(np.array([1, 2], dtype=np.int32))

    def test_subset_size_must_fit_sample(self):
        with pytest.raises(ValueError, match="exceeds"):
            KernelEvaluator(knn_vs_const(4), four_rows())

    def test_kernel_requires_positive_g(self):
        with pytest.raises(ValueError, match="g"):
            ComparisonKernel(knn_learner(1), constant_learner(0), g=0)


def reference_key(data: Dataset, window) -> tuple[int, ...]:
    """The phi0 key of window: sorted class ids, each repeat replaced by the class's next row."""
    classes: dict[tuple, list[int]] = {}
    for i, obs in enumerate(data.observations, start=1):
        classes.setdefault((obs.x, obs.y), []).append(i)
    rows_of = {i: rows for rows in classes.values() for i in rows}
    ids = sorted(rows_of[i][0] for i in window)
    return tuple(sorted(rows_of[k][ids[:j].count(k)] for j, k in enumerate(ids)))


def assert_python_int_tuples(keys):
    """Every key is a tuple of Python ints.

    numpy integers compare and hash equal to ints, so == alone would pass
    keys that make every memo lookup slower.
    """
    assert all(type(key) is tuple for key in keys)
    assert all(type(i) is int for key in keys for i in key)


class TestPhi0Keys:
    @settings(max_examples=150, deadline=None)
    @given(draw=st.data())
    def test_bulk_and_scalar_keys_match_the_reference(self, draw):
        # Few atoms over many rows, so windows repeat atoms, up to m = 12.
        m = draw.draw(st.integers(min_value=2, max_value=12), label="m")
        n = draw.draw(st.integers(min_value=m, max_value=2 * m + 6), label="n")
        atoms = draw.draw(st.integers(min_value=1, max_value=4), label="atoms")
        row_atoms = draw.draw(st.lists(st.integers(0, atoms - 1), min_size=n, max_size=n))
        windows = draw.draw(
            st.lists(st.permutations(range(1, n + 1)).map(lambda p: p[:m]), min_size=1, max_size=6)
        )
        data = Dataset.from_arrays([(float(a),) for a in row_atoms], [a % 2 for a in row_atoms])
        kernel = ComparisonKernel(constant_learner(0), constant_learner(1), g=m - 1)
        ev = KernelEvaluator(kernel, data)
        expected = [reference_key(data, w) for w in windows]
        keys = ev.phi0_keys(np.array(windows, dtype=np.int32))
        assert keys == expected
        assert_python_int_tuples(keys)
        # A key is its own key, and the scalar path evaluates exactly these
        # keys; it also stores each window under itself, so a repeat is
        # answered by the lookup.
        assert ev.phi0_keys(np.array(expected, dtype=np.int32)) == expected
        for window in windows:
            ev.phi0(tuple(window))
        assert ev.phi0_evaluations == len(set(expected))
        assert set(ev) == set(expected) | set(map(tuple, windows))

    def test_learning_keys_name_the_learning_multisets(self):
        # Row 6 repeats row 1, row 7 row 2 and row 8 row 4.
        data = eight_rows_of_five_atoms()
        ev = KernelEvaluator(ComparisonKernel(knn_learner(1), stump_learner(), g=3), data)
        draws = [[6, 1, 3], [7, 2, 5], [8, 4, 6], [2, 3, 4], [3, 6, 1]]
        keys = ev.learning_keys(np.array(draws, dtype=np.int32))
        assert keys == [reference_key(data, draw) for draw in draws]
        assert_python_int_tuples(keys)
        # The batch stored each distinct key's total, which is the total of
        # the draw itself.
        assert set(ev._totals) == set(keys)
        refit = KernelEvaluator(ComparisonKernel(Refitting(knn_learner(1)), stump_learner(), g=3), data)
        for key, draw in zip(keys, draws):
            assert ev.phi_complement_total(key) == refit.phi_complement_total(tuple(draw))
        assert ev.pair_fits == 0
        with pytest.raises(ValueError, match="need windows of 3"):
            ev.learning_keys(np.array([[1, 2]], dtype=np.int32))
        with pytest.raises(ValueError, match="need 3 distinct"):
            ev.learning_keys(np.array([[1, 1, 2]], dtype=np.int32))
        with pytest.raises(IndexError):
            ev.learning_keys(np.array([[0, 1, 2]], dtype=np.int32))


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
        # The total has its own memo, which still holds it.
        assert ev.phi_complement_total((1, 2)) == total
        assert len(fitted) == 4
        ev.phi((6, 7), 3)
        assert len(fitted) == 5

    def test_emptying_a_full_memo_refits_nothing(self, monkeypatch):
        # Chunks of 16 draws fill a memo of 64 entries within a few calls.
        # When a call's new keys do not fit, the memo is emptied, and the
        # call's keys it held go to the batch with the new ones instead of
        # each being refitted when requested.
        rng = np.random.default_rng(5)
        atoms, labels = rng.normal(size=(12, 2)), rng.integers(0, 2, size=12)
        rows = rng.integers(0, 12, size=24)
        data = Dataset.from_arrays([tuple(atoms[r]) for r in rows], labels[rows].tolist())
        kernel = ComparisonKernel(knn_learner(1), stump_learner(), g=2)
        config = EstimatorConfig(draws=300, seed=3, mode=INCOMPLETE)

        def estimate():
            ev = KernelEvaluator(kernel, data)
            return (estimate_delta(ev, config), estimate_variance(ev, config)), ev.pair_fits

        expected, _ = estimate()
        monkeypatch.setattr(kernels, "MEMO_SIZE", 64)
        monkeypatch.setattr(estimators, "_CHUNK_DRAWS", 16)
        assert estimate() == (expected, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluator_freed_by_reference_counting(self):
        # The evaluator is its own memo and holds no reference back to
        # itself, so after complete and sampled estimates it is freed as
        # soon as its last name goes, without the cycle collector.
        ev = KernelEvaluator(
            ComparisonKernel(knn_learner(1), stump_learner(), g=2), eight_rows_of_five_atoms()
        )
        for mode in (COMPLETE, INCOMPLETE):
            config = EstimatorConfig(draws=50, seed=1, mode=mode)
            estimate_delta(ev, config)
            estimate_variance(ev, config)
        assert ev and ev._learned and ev._key_tables is not None
        ref = weakref.ref(ev)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del ev
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def nine_gaussian_rows() -> Dataset:
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(9, 2))
    return Dataset.from_arrays([tuple(map(float, x)) for x in xs], [int(x[0] > 0) for x in xs])


LEARNER_PAIRS = {
    "knn3-stump": (knn_learner(3), stump_learner()),
    "knn1-centroid": (knn_learner(1), centroid_learner()),
    "centroid-const0": (centroid_learner(), constant_learner(0)),
    "stump-knn3": (stump_learner(), knn_learner(3)),
}


class TestLeaveOneOutPath:
    """Built-in learners, whose batch counts LOO errors, agree with the same learners refitted."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("pair", sorted(LEARNER_PAIRS))
    @pytest.mark.parametrize("rows", ["repeats", "distinct"])
    def test_phi0_equals_refitting(self, pair, rows):
        data = eight_rows_of_five_atoms() if rows == "repeats" else nine_gaussian_rows()
        loo_kernel = ComparisonKernel(*LEARNER_PAIRS[pair], g=2)
        refit_kernel = ComparisonKernel(*map(Refitting, LEARNER_PAIRS[pair]), g=2)
        loo, refit = KernelEvaluator(loo_kernel, data), KernelEvaluator(refit_kernel, data)
        subsets = list(itertools.combinations(range(1, data.n + 1), 3))
        assert [loo.phi0(s) for s in subsets] == [refit.phi0(s) for s in subsets]
        # Complete mode has no batch, so both fit each learning multiset
        # once; the oracle's phi0 is the reference independent of the memo.
        assert loo.pair_fits == refit.pair_fits
        for s in subsets:
            assert loo.phi0(s) == phi0_value(loo_kernel, [data.observation(i) for i in s])
        # Sampled windows, requested as keys through phi0_keys, on fresh memos.
        loo, refit = KernelEvaluator(loo_kernel, data), KernelEvaluator(refit_kernel, data)
        config = EstimatorConfig(draws=300, seed=5, mode=INCOMPLETE)
        assert estimate_variance(loo, config) == estimate_variance(refit, config)
        # Only the keys the batch leaves to phi are fitted.
        assert loo.pair_fits < refit.pair_fits


def rows_with_a_huge_pair() -> Dataset:
    """Ten small rows and two at +-1.7e308, whose squared distances overflow."""
    xs = [(float(i % 5), float(i // 5)) for i in range(10)] + [(1.7e308, 0.0), (-1.7e308, 1.0)]
    return Dataset.from_arrays(xs, [i % 2 for i in range(12)])


def tied_grid_rows() -> Dataset:
    """A 3 x 3 grid listed in descending order, so kNN's distance ties go
    to rows in the reverse of their index order."""
    points = sorted(itertools.product([0.0, 1.0, 2.0], repeat=2), reverse=True)
    return Dataset.from_arrays(points, [int(a + 2 * b) % 3 == 0 for a, b in points])


class TestBatchPath:
    """phi0_keys and learning_keys pre-fill the memos in batches; every result is as without them."""

    @pytest.mark.parametrize("pair", sorted(LEARNER_PAIRS))
    def test_overflow_raises_at_the_same_request(self, pair):
        def run(kernel):
            ev = KernelEvaluator(kernel, rows_with_a_huge_pair())
            requests, product = [], ev.product

            def logged(*windows):
                requests.append(windows)
                return product(*windows)

            ev.product = logged
            with pytest.raises(OverflowError) as raised:
                estimate_variance(ev, EstimatorConfig(draws=300, seed=2, mode=INCOMPLETE))
            return requests, str(raised.value), ev

        requests, message, ev = run(ComparisonKernel(*LEARNER_PAIRS[pair], g=2))
        # The batch filled the memo beyond what the requests so far stored.
        assert ev.phi0_evaluations > 2 * len(requests)
        refit = run(ComparisonKernel(*map(Refitting, LEARNER_PAIRS[pair]), g=2))
        assert (requests, message) == refit[:2]

    @pytest.mark.parametrize("pair", sorted(LEARNER_PAIRS))
    def test_delta_overflow_raises_at_the_same_draw(self, pair):
        def run(kernel):
            ev = KernelEvaluator(kernel, rows_with_a_huge_pair())
            requests, total = [], ev.phi_complement_total

            def logged(learn_indices):
                requests.append(learn_indices)
                return total(learn_indices)

            ev.phi_complement_total = logged
            with pytest.raises(OverflowError) as raised:
                estimate_delta(ev, EstimatorConfig(draws=300, seed=2, mode=INCOMPLETE))
            return requests, str(raised.value)

        refit = run(ComparisonKernel(*map(Refitting, LEARNER_PAIRS[pair]), g=2))
        assert run(ComparisonKernel(*LEARNER_PAIRS[pair], g=2)) == refit

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("pair", sorted(LEARNER_PAIRS))
    @pytest.mark.parametrize("rows", ["repeats", "distinct", "ties", "no-features"])
    def test_results_do_not_depend_on_batching(self, pair, rows, monkeypatch):
        data = {
            "repeats": eight_rows_of_five_atoms,
            "distinct": nine_gaussian_rows,
            "ties": tied_grid_rows,
            "no-features": lambda: Dataset.from_arrays([()] * 9, [0, 1, 1, 0, 1, 1, 0, 0, 1]),
        }[rows]()
        kernel = ComparisonKernel(*LEARNER_PAIRS[pair], g=2)
        config = EstimatorConfig(draws=300, seed=4, mode=INCOMPLETE)

        def estimate(kernel=kernel):
            ev = KernelEvaluator(kernel, data)
            return estimate_delta(ev, config), estimate_variance(ev, config), ev.phi0_evaluations

        expected = estimate()
        for elements in (1, 10**9):
            monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", elements)
            assert estimate() == expected
        # Without batches, every key is fitted and predicted.
        assert estimate(ComparisonKernel(*map(Refitting, LEARNER_PAIRS[pair]), g=2)) == expected
        # A memo of three entries is emptied on every batch, and the keys it
        # lost are evaluated again when requested.
        monkeypatch.setattr(kernels, "MEMO_SIZE", 3)
        assert estimate()[:2] == expected[:2]

    def test_learning_keys_size_holdout_batches_by_n_times_g(self):
        # learning_keys states n * g array elements per key, the size of
        # kNN's distance table, so each holdout_errors_batch call takes
        # _BATCH_ELEMENTS // (n * g) keys, whatever the number of features.
        n, g = 200, 20
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(n, 5))
        data = Dataset.from_arrays([tuple(map(float, x)) for x in xs], [int(x[0] > 0) for x in xs])
        knn, sizes = knn_learner(3), []

        class CountingKnn(Learner):
            def fit(self, learning_set):
                return knn.fit(learning_set)

            def holdout_errors_batch(self, x, y, subsets):
                sizes.append(len(subsets))
                return knn.holdout_errors_batch(x, y, subsets)

        ev = KernelEvaluator(ComparisonKernel(CountingKnn(), constant_learner(0), g=g), data)
        step = kernels._BATCH_ELEMENTS // (n * g)
        draws = np.array([rng.choice(n, g, replace=False) + 1 for _ in range(2 * step + 1)])
        keys = ev.learning_keys(draws)
        assert sizes == [step, step, 1]
        # The batches answered every key, so reading the totals fits nothing.
        for key in keys:
            ev.phi_complement_total(key)
        assert ev.pair_fits == 0
