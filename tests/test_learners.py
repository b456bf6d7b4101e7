import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucompare.dataset import Observation
from ucompare.learners import (
    centroid_learner,
    constant_learner,
    knn_learner,
    misclassification_loss,
    parse_learner,
    stump_learner,
)


def obs(*pairs):
    return [Observation(tuple(x) if isinstance(x, (tuple, list)) else (x,), y) for x, y in pairs]


ALL_LEARNERS = [
    knn_learner(1),
    knn_learner(3),
    centroid_learner(),
    stump_learner(),
    constant_learner(0),
    constant_learner(1),
]


def test_loss_values():
    assert misclassification_loss(0, 1) == 1.0
    assert misclassification_loss(1, 1) == 0.0
    assert misclassification_loss(0, 0) == 0.0
    with pytest.raises(ValueError):
        misclassification_loss(2, 0)
    with pytest.raises(ValueError):
        misclassification_loss(0, -1)


class TestKnn:
    def test_single_neighbour(self):
        pred = knn_learner(1).fit(obs((0.0, 0), (1.0, 1)))
        assert pred.predict((0.9,)) == 1
        assert pred.predict((0.1,)) == 0

    def test_distance_tie_goes_to_smaller_canonical_index(self):
        # x=0.5 is equidistant from both points; the canonically first
        # (x=0, label 0) wins.
        pred = knn_learner(1).fit(obs((1.0, 1), (0.0, 0)))
        assert pred.predict((0.5,)) == 0

    def test_three_neighbour_majority(self):
        pred = knn_learner(3).fit(obs((0.0, 0), (0.1, 0), (1.0, 1)))
        assert pred.predict((0.5,)) == 0

    def test_vote_tie_predicts_zero(self):
        pred = knn_learner(2).fit(obs((0.0, 0), (1.0, 1)))
        assert pred.predict((0.5,)) == 0

    def test_k_capped_at_learning_size(self):
        pred = knn_learner(5).fit(obs((0.0, 1), (1.0, 1)))
        assert pred.predict((10.0,)) == 1

    def test_batch_agrees_with_single(self):
        learning = obs((0.0, 0), (0.25, 1), (2.0, 1), (3.0, 0))
        pred = knn_learner(3).fit(learning)
        xs = [(v,) for v in np.linspace(-1.0, 4.0, 23)]
        for size in (1, 7, 23):
            assert pred.predict_batch(xs[:size]) == [pred.predict(x) for x in xs[:size]]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            knn_learner(0)


@pytest.mark.parametrize("learner", [knn_learner(1), centroid_learner()], ids=["knn1", "centroid"])
@pytest.mark.parametrize("width", [1, 3])
class TestQueryWidth:
    """A query must have the learning set's width: (0, 0) labelled 0, (1, 5) labelled 1."""

    LEARNING = obs(((0.0, 0.0), 0), ((1.0, 5.0), 1))

    def test_predict_rejects(self, learner, width):
        pred = learner.fit(self.LEARNING)
        assert pred.predict((0.9, 0.0)) == 0
        with pytest.raises(ValueError, match=f"query has {width} features, .* have 2"):
            pred.predict((0.9,) + (0.0,) * (width - 1))

    def test_predict_batch_rejects(self, learner, width):
        pred = learner.fit(self.LEARNING)
        with pytest.raises(ValueError, match=f"query has {width} features, .* have 2"):
            pred.predict_batch([(0.9,) + (0.0,) * (width - 1)] * 8)


class TestCentroid:
    def test_nearer_centroid_wins(self):
        pred = centroid_learner().fit(obs((0.0, 0), (1.0, 0), (4.0, 1), (5.0, 1)))
        assert pred.predict((1.0,)) == 0
        assert pred.predict((4.2,)) == 1

    def test_single_class_predicts_that_class(self):
        pred = centroid_learner().fit(obs((0.0, 1), (1.0, 1)))
        assert pred.predict((100.0,)) == 1

    def test_exact_tie_predicts_zero(self):
        pred = centroid_learner().fit(obs((0.0, 0), (2.0, 1)))
        assert pred.predict((1.0,)) == 0

    def test_batch_agrees_with_single(self):
        pred = centroid_learner().fit(obs((0.0, 0), (1.0, 0), (4.0, 1)))
        xs = [(v,) for v in np.linspace(-2.0, 6.0, 17)]
        for size in (1, 7, 17):
            assert pred.predict_batch(xs[:size]) == [pred.predict(x) for x in xs[:size]]


def left_to_right_squared_distance(x, p):
    total = 0.0
    for a, b in zip(x, p):
        total += (a - b) * (a - b)
    return total


def reference_centroid_means(learning):
    """The class means (label 0, label 1), or None for a single-class set."""
    rows = {label: [o.x for o in learning if o.y == label] for label in (0, 1)}
    if not rows[0] or not rows[1]:
        return None
    return tuple(
        [math.fsum(col) / len(rows[label]) for col in zip(*rows[label])] for label in (0, 1)
    )


class TestCentroidMatchesReference:
    """The nearest-class-mean rule written out: 1 if d1 < d0, else 0."""

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_seeded_learning_sets(self, d):
        # Three kinds of query per learning set: Gaussian; small integers,
        # which tie exactly when the class sizes are powers of two; and
        # points on the bisecting hyperplane of the two means, moved by at
        # most one unit in the last place per coordinate.
        rng = np.random.default_rng([20261019, d])
        ties = 0
        for _ in range(1500):
            integers = rng.random() < 0.5
            g = int(rng.choice([1, 2, 3, 4, 6, 8]))
            if integers:
                xs = rng.integers(-2, 3, size=(g, d)).astype(float)
            else:
                xs = rng.normal(size=(g, d))
            ys = rng.integers(0, 2, size=g)
            learning = [Observation(tuple(map(float, x)), int(y)) for x, y in zip(xs, ys)]
            pred = centroid_learner().fit(learning)
            means = reference_centroid_means(learning)
            if means is None:
                assert fitted_fields(pred) == ("_ConstantPredictor", {"label": int(ys[0])})
                continue
            queries = list(rng.normal(size=(4, d)))
            if integers:
                queries += list(rng.integers(-2, 3, size=(8, d)).astype(float))
            normal = np.subtract(means[1], means[0])
            for _ in range(4 if normal.any() else 0):
                v = rng.normal(size=d)
                v -= (v @ normal) / (normal @ normal) * normal
                x = np.add(means[0], means[1]) / 2 + v
                queries.append(np.nextafter(x, x + rng.integers(-1, 2, size=d)))
            queries = [tuple(map(float, q)) for q in queries]
            d0 = [left_to_right_squared_distance(q, means[0]) for q in queries]
            d1 = [left_to_right_squared_distance(q, means[1]) for q in queries]
            expected = [1 if b < a else 0 for a, b in zip(d0, d1)]
            assert [pred.predict(q) for q in queries] == expected, (learning, queries)
            assert pred.predict_batch(queries) == expected, (learning, queries)
            ties += sum(a == b for a, b in zip(d0, d1))
        assert ties > 0


# Learning rows (x, y) and one query whose squared distance to a learning
# row or centroid is not finite, for three reasons.
OVERFLOWING_DISTANCES = {
    # The difference 2e200 is finite; its square is not.
    "square": (obs((0.0, 0), (1e200, 1)), (2e200,)),
    # 1.7e308 - (-1.7e308) already overflows to inf.
    "difference": (obs((-1.7e308, 0), (1.7e308, 1)), (1.7e308,)),
    # Each squared coordinate difference is finite; their sum is not.
    "sum": (obs(((0.0, 0.0), 0), ((1.2e154, 1.2e154), 1)), (1.2e154, 1.2e154)),
}


@pytest.mark.parametrize("learner", [knn_learner(1), centroid_learner()], ids=["knn1", "centroid"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_DISTANCES))
class TestDistanceOverflow:
    def test_predict_raises(self, learner, case):
        learning, query = OVERFLOWING_DISTANCES[case]
        with pytest.raises(OverflowError):
            learner.fit(learning).predict(query)

    def test_predict_batch_raises(self, learner, case):
        # Eight query rows, so the numpy path runs; warnings are errors, so
        # the numpy overflow must not leak out as a RuntimeWarning either.
        learning, query = OVERFLOWING_DISTANCES[case]
        xs = [tuple(0.0 for _ in query)] * 7 + [query]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                learner.fit(learning).predict_batch(xs)


class TestScalarMatchesBatchOnNearTies:
    """predict and predict_batch square each difference with the same rounding."""

    def test_knn_one_ulp_square(self):
        # d ** 2 (libm pow) of d = 0.0 - Q[0] lands one unit in the last
        # place below d * d, which made Q nearer on the scalar path.
        p = (-1.4359553057260184, -0.17304309345480484)
        q = (-0.8513113416860458, -1.1692649621671793)
        pred = knn_learner(1).fit(obs((p, 1), (q, 0)))
        assert pred.predict((0.0, 0.0)) == pred.predict_batch([(0.0, 0.0)])[0] == 1

    def test_squares_added_left_to_right(self):
        # From P the squares 1e16, 1, 1, 1 add left to right to 1e16, but to
        # 1e16 + 4 with compensation, as Python 3.12's sum() of floats does;
        # from Q the distance is 1e16 + 2. So only the left-to-right sum
        # makes P, with label 0, the nearer point.
        p = (1e8, 1.0, 1.0, 1.0)
        q = (math.nextafter(1e8, math.inf), 0.0, 0.0, 0.0)
        pred = knn_learner(1).fit(obs((p, 0), (q, 1)))
        origin = (0.0, 0.0, 0.0, 0.0)
        assert pred.predict(origin) == pred.predict_batch([origin])[0] == 0

    @pytest.mark.parametrize("d", [2, 8, 12])
    @pytest.mark.parametrize("learner", [knn_learner(1), centroid_learner()], ids=["knn1", "centroid"])
    def test_constructed_near_ties(self, learner, d):
        # Q lies on the sphere through P around the query, then moves by at
        # most one unit in the last place per coordinate, so the two squared
        # distances agree to the last bits. One row per class makes the
        # centroids P and Q themselves. From d = 8 up, numpy's sum over an
        # axis adds pairwise, so the batch path must add left to right.
        rng = np.random.default_rng([20261018, d])
        for _ in range(10_000):
            x, p = rng.normal(size=d), rng.normal(size=d)
            direction = rng.normal(size=d)
            q = x + np.linalg.norm(p - x) / np.linalg.norm(direction) * direction
            q = np.nextafter(q, q + rng.integers(-1, 2, size=d))
            x, p, q = (tuple(map(float, v)) for v in (x, p, q))
            pred = learner.fit(obs((p, 1), (q, 0)))
            assert pred.predict(x) == pred.predict_batch([x])[0], (x, p, q)


class TestStump:
    def test_separable_split(self):
        pred = stump_learner().fit(obs((0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1)))
        assert pred.predict((2.5,)) == 1
        assert pred.predict((0.5,)) == 0

    def test_tie_breaks_by_feature_then_threshold(self):
        # Both features separate perfectly; feature 0 must win.
        learning = obs(((0.0, 10.0), 0), ((1.0, 20.0), 1))
        pred = stump_learner().fit(learning)
        assert pred.predict((0.0, 25.0)) == 0
        assert pred.predict((1.0, 5.0)) == 1

    def test_constant_features_fall_back_to_majority(self):
        pred = stump_learner().fit(obs((1.0, 1), (1.0, 1), (1.0, 0)))
        assert pred.predict((1.0,)) == 1
        # tie in the majority -> 0
        pred = stump_learner().fit(obs((1.0, 1), (1.0, 0)))
        assert pred.predict((1.0,)) == 0


def reference_stump_fit(learning_set):
    """The quadratic-scan stump fit, kept as the reference for the fast one.

    Returns the predictor's class name and fields.
    """
    if not learning_set:
        raise ValueError("cannot fit on an empty learning set")
    ordered = sorted(learning_set, key=lambda o: (o.x, o.y))

    def majority(labels):
        ones = sum(labels)
        return 1 if ones > len(labels) - ones else 0

    best = None
    for j in range(len(ordered[0].x)):
        values = sorted({o.x[j] for o in ordered})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [o.y for o in ordered if o.x[j] <= threshold]
            right = [o.y for o in ordered if o.x[j] > threshold]
            label_le = majority(left)
            label_gt = majority(right)
            errors = sum(1 for y in left if y != label_le) + sum(
                1 for y in right if y != label_gt
            )
            candidate = (errors, j, threshold, label_le, label_gt)
            if best is None or candidate[:3] < best[:3]:
                best = candidate
    if best is None:
        return "_ConstantPredictor", {"label": majority([o.y for o in ordered])}
    _, j, threshold, label_le, label_gt = best
    return "_StumpPredictor", {
        "feature": j,
        "threshold": threshold,
        "label_le": label_le,
        "label_gt": label_gt,
    }


def fitted_fields(predictor):
    return type(predictor).__name__, vars(predictor)


def next_floats(value, count):
    out = [value]
    for _ in range(count - 1):
        out.append(math.nextafter(out[-1], math.inf))
    return out


ONE, ONE_UP, ONE_UP2 = next_floats(1.0, 3)
HUGE = 1.7e308


class TestStumpMatchesQuadraticScan:
    @pytest.mark.parametrize(
        "learning",
        [
            # (1 + 1ulp + 1 + 2ulp) / 2 rounds up to hi, so the split at it
            # puts every row left; (1 + 1 + 1ulp) / 2 rounds down to lo.
            obs((ONE, 0), (ONE_UP, 0), (ONE_UP2, 1)),
            obs((ONE, 1), (ONE_UP, 0), (ONE_UP2, 1), (ONE_UP2, 1)),
            # lo + hi overflows to +inf or -inf.
            obs((1.6e308, 0), (HUGE, 1)),
            obs((-HUGE, 1), (-1.6e308, 0)),
            obs((-HUGE, 0), (-1.6e308, 1), (0.0, 1), (1.6e308, 0), (HUGE, 1)),
            obs(((HUGE, 0.0), 0), ((1.6e308, 1.0), 1), ((1.0, 2.0), 0)),
            # Every feature constant: the overall majority, a tie giving 0.
            obs(((1.0, 2.0), 1), ((1.0, 2.0), 1), ((1.0, 2.0), 0)),
            obs(((1.0, 2.0), 1), ((1.0, 2.0), 0)),
            # Equal error counts across features and thresholds.
            obs(((0.0, 3.0), 0), ((1.0, 2.0), 1), ((2.0, 1.0), 0), ((3.0, 0.0), 1)),
            obs(((0.0, 0.0), 1), ((1.0, 1.0), 0), ((1.0, 1.0), 1), ((2.0, 2.0), 0)),
            # Single-class sets.
            obs((0.0, 1), (1.0, 1), (2.0, 1)),
            obs(((0.0, 5.0), 0), ((1.0, 4.0), 0)),
            # g = 1.
            obs((0.5, 1)),
            obs(((0.5, -2.0, 3.0), 0)),
            # Zero-error splits on features 0 and 1; feature 0's comes first
            # although feature 1's threshold is smaller.
            obs(((0.0, -5.0), 0), ((1.0, -4.0), 0), ((2.0, -3.0), 1)),
            # (1 + 1ulp + 1 + 2ulp) / 2 rounds up to hi, and that split is the
            # first with zero errors.
            obs((ONE, 1), (ONE_UP, 1), (ONE_UP2, 1), (2.0, 0)),
            # Feature 0's best split has one error; feature 1 has none.
            obs(((0.0, 2.0), 1), ((1.0, 0.0), 0), ((2.0, 1.0), 0), ((3.0, 3.0), 1)),
        ],
        ids=[
            "round-up-to-hi",
            "round-up-with-repeats",
            "overflow-to-inf",
            "overflow-to-minus-inf",
            "overflow-both-ends",
            "overflow-two-features",
            "constant-features",
            "constant-features-tie",
            "equal-errors",
            "equal-errors-repeats",
            "single-class",
            "single-class-two-features",
            "g1",
            "g1-three-features",
            "zero-error-on-two-features",
            "zero-error-at-round-up",
            "zero-error-after-nonzero-best",
        ],
    )
    def test_explicit_cases(self, learning):
        assert fitted_fields(stump_learner().fit(learning)) == reference_stump_fit(learning)

    def test_seeded_learning_sets(self):
        rng = np.random.default_rng(20131)
        huge = [-HUGE, -1.6e308, -1e308, 0.0, 1e308, 1.6e308, HUGE]

        def column(kind, g):
            if kind == 0:
                return [float(v) for v in rng.normal(size=g)]
            if kind == 1:
                return [float(v) for v in rng.integers(0, 3, size=g)]
            if kind == 2:
                run = next_floats(float(rng.choice([-1.0, 0.5, 1.0, 3.0])), 4)
                return [run[i] for i in rng.integers(0, 4, size=g)]
            return [huge[i] for i in rng.integers(0, len(huge), size=g)]

        for _ in range(3000):
            g = int(rng.integers(1, 13))
            d = int(rng.integers(1, 5))
            columns = [column(int(rng.integers(0, 4)), g) for _ in range(d)]
            if rng.random() < 0.2:
                labels = [int(rng.integers(0, 2))] * g
            else:
                labels = [int(y) for y in rng.integers(0, 2, size=g)]
            learning = [Observation(x, y) for x, y in zip(zip(*columns), labels)]
            assert fitted_fields(stump_learner().fit(learning)) == reference_stump_fit(
                learning
            ), learning


    def test_seeded_linear_score_labels(self):
        # Labels that follow the sign of a linear score often admit a
        # zero-error split, where the scan stops; random labels seldom do.
        rng = np.random.default_rng(20132)
        zero_error = 0
        for _ in range(2000):
            g = int(rng.integers(1, 13))
            d = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                xs = rng.normal(size=(g, d))
            else:
                xs = rng.integers(-2, 3, size=(g, d)).astype(float)
            # One dominant feature makes zero-error splits common.
            weights = rng.normal(size=d) * np.where(np.arange(d) == rng.integers(0, d), 1.0, 0.1)
            labels = (xs @ weights > rng.normal(scale=0.5)).astype(int)
            learning = [Observation(tuple(map(float, x)), int(y)) for x, y in zip(xs, labels)]
            predictor = stump_learner().fit(learning)
            assert fitted_fields(predictor) == reference_stump_fit(learning), learning
            zero_error += all(predictor.predict(o.x) == o.y for o in learning)
        assert zero_error > 1000


@pytest.mark.parametrize("learner", ALL_LEARNERS)
def test_fit_rejects_empty_learning_set(learner):
    with pytest.raises(ValueError, match="empty"):
        learner.fit([])


@pytest.mark.parametrize("learner", ALL_LEARNERS)
def test_refit_is_deterministic(learner):
    rng = np.random.default_rng(42)
    learning = obs(*[((float(a), float(b)), int(y)) for a, b, y in
                     zip(rng.normal(size=6), rng.normal(size=6), rng.integers(0, 2, 6))])
    probes = [tuple(p) for p in rng.normal(size=(100, 2))]
    first = learner.fit(learning)
    second = learner.fit(list(learning))
    assert [first.predict(p) for p in probes] == [second.predict(p) for p in probes]


@pytest.mark.parametrize("learner", ALL_LEARNERS)
def test_permutation_symmetry_exhaustive(learner):
    learning = obs((0.0, 0), (0.5, 1), (1.5, 1), (2.5, 0))
    probes = [(v,) for v in (-0.3, 0.2, 0.5, 1.0, 1.9, 3.1)]
    reference = [learner.fit(learning).predict(p) for p in probes]
    for perm in itertools.permutations(learning):
        assert [learner.fit(list(perm)).predict(p) for p in probes] == reference


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    probe=st.floats(min_value=-12, max_value=12, allow_nan=False),
)
@pytest.mark.parametrize("learner", ALL_LEARNERS)
def test_permutation_symmetry_property(learner, data, seed, probe):
    learning = obs(*data)
    shuffled = list(learning)
    np.random.default_rng(seed).shuffle(shuffled)
    assert learner.fit(learning).predict((probe,)) == learner.fit(shuffled).predict((probe,))


def test_parse_learner_identifiers():
    assert parse_learner("knn:3").k == 3
    assert parse_learner("const:1").label == 1
    parse_learner("centroid")
    parse_learner("stump")
    for bad in ("knn", "knn:x", "const:2", "forest", "centroid:3", "stump:1", ""):
        with pytest.raises(ValueError):
            parse_learner(bad)
