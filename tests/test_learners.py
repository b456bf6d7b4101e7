import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucompare.dataset import Dataset, Observation
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import (
    _exact_sums,
    centroid_learner,
    constant_learner,
    knn_learner,
    misclassification_loss,
    parse_learner,
    stump_learner,
)

from support import Refitting


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


def holdout_labels(learner, cases):
    """The labels holdout_errors_batch gives each case's queries, or None for a case it leaves.

    cases is a list of (learning rows, query feature tuples), every learning
    set of one size. All their rows, the queries labelled 0, make one
    dataset, sorted by (x, y) as the kernels sort it, and each case's
    learning rows are one subset.
    """
    rows, subsets, queries = [], [], []
    for learning, xs in cases:
        subsets.append(range(len(rows), len(rows) + len(learning)))
        rows += learning
        queries.append(list(range(len(rows), len(rows) + len(xs))))
        rows += [Observation(tuple(q), 0) for q in xs]
    order = sorted(range(len(rows)), key=lambda i: (rows[i].x, rows[i].y))
    place = np.empty(len(rows), dtype=int)
    place[order] = np.arange(len(rows))
    x = np.array([rows[i].x for i in order], dtype=float)
    y = np.array([rows[i].y for i in order])
    wrong, answered = learner.holdout_errors_batch(x, y, np.sort(place[np.array(subsets)], axis=1))
    # A query is labelled 0, so it is misclassified exactly where the label is 1.
    return [
        wrong[b, place[q]].astype(int).tolist() if ok else None
        for b, (q, ok) in enumerate(zip(queries, answered.tolist()))
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
        xs = [(float(v),) for v in np.linspace(-1.0, 4.0, 23)]
        for size in (1, 7, 23):
            expected = [pred.predict(x) for x in xs[:size]]
            assert holdout_labels(knn_learner(3), [(learning, xs[:size])]) == [expected]

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
        learning = obs((0.0, 0), (1.0, 0), (4.0, 1))
        pred = centroid_learner().fit(learning)
        xs = [(float(v),) for v in np.linspace(-2.0, 6.0, 17)]
        for size in (1, 7, 17):
            expected = [pred.predict(x) for x in xs[:size]]
            assert holdout_labels(centroid_learner(), [(learning, xs[:size])]) == [expected]


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
        # The hold-out batch leaves the learning set to fitting and
        # predicting, where predict_batch raises. Warnings are errors, so
        # the batch's numpy overflow must not leak out as a RuntimeWarning.
        learning, query = OVERFLOWING_DISTANCES[case]
        xs = [tuple(0.0 for _ in query)] * 7 + [query]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert holdout_labels(learner, [(learning, xs)]) == [None]
        with pytest.raises(OverflowError):
            learner.fit(learning).predict_batch(xs)


class TestScalarMatchesBatchOnNearTies:
    """predict and holdout_errors_batch square each difference with the same rounding."""

    def test_knn_one_ulp_square(self):
        # d ** 2 (libm pow) of d = 0.0 - Q[0] lands one unit in the last
        # place below d * d, which made Q nearer on the scalar path.
        p = (-1.4359553057260184, -0.17304309345480484)
        q = (-0.8513113416860458, -1.1692649621671793)
        learning = obs((p, 1), (q, 0))
        pred = knn_learner(1).fit(learning)
        assert [[pred.predict((0.0, 0.0))]] == holdout_labels(
            knn_learner(1), [(learning, [(0.0, 0.0)])]
        ) == [[1]]

    def test_squares_added_left_to_right(self):
        # From P the squares 1e16, 1, 1, 1 add left to right to 1e16, but to
        # 1e16 + 4 with compensation, as Python 3.12's sum() of floats does;
        # from Q the distance is 1e16 + 2. So only the left-to-right sum
        # makes P, with label 0, the nearer point.
        p = (1e8, 1.0, 1.0, 1.0)
        q = (math.nextafter(1e8, math.inf), 0.0, 0.0, 0.0)
        learning = obs((p, 0), (q, 1))
        origin = (0.0, 0.0, 0.0, 0.0)
        assert [[knn_learner(1).fit(learning).predict(origin)]] == holdout_labels(
            knn_learner(1), [(learning, [origin])]
        ) == [[0]]

    @pytest.mark.parametrize("d", [2, 8, 12])
    @pytest.mark.parametrize("learner", [knn_learner(1), centroid_learner()], ids=["knn1", "centroid"])
    def test_constructed_near_ties(self, learner, d):
        # Q lies on the sphere through P around the query, then moves by at
        # most one unit in the last place per coordinate, so the two squared
        # distances agree to the last bits. One row per class makes the
        # centroids P and Q themselves. From d = 8 up, numpy's sum over an
        # axis adds pairwise, so the batch path must add left to right. The
        # cases go to the batch 100 at a time.
        rng = np.random.default_rng([20261018, d])
        for _ in range(100):
            cases = []
            for _ in range(100):
                x, p = rng.normal(size=d), rng.normal(size=d)
                direction = rng.normal(size=d)
                q = x + np.linalg.norm(p - x) / np.linalg.norm(direction) * direction
                q = np.nextafter(q, q + rng.integers(-1, 2, size=d))
                x, p, q = (tuple(map(float, v)) for v in (x, p, q))
                cases.append((obs((p, 1), (q, 0)), [x]))
            expected = [[learner.fit(learning).predict(xs[0])] for learning, xs in cases]
            assert holdout_labels(learner, cases) == expected


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


def refit_errors(learner, rows):
    """Rows misclassified by the learner fitted on the other rows, by m fits."""
    return sum(
        learner.fit(rows[:i] + rows[i + 1 :]).predict(row.x) != row.y
        for i, row in enumerate(rows)
    )


def outcome(count):
    """count(), or OverflowError when it raises that."""
    try:
        return count()
    except OverflowError:
        return OverflowError


# Feature values: small integers tie distances exactly and repeat rows; 1,
# 1 + 1ulp and 1 + 2ulp give a stump midpoint that rounds up to hi; the
# large values overflow a midpoint, a centroid sum or a squared distance.
# The tiny ones give subnormal centroid sums, and beside 1 or 2 binary
# exponents that span more (2.7e-17) or just no more (1.1e-14) than the
# centroid batch's exact sums cover.
LOO_VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([ONE, ONE_UP, ONE_UP2]),
    st.sampled_from([-HUGE, -1.6e308, -1e308, 1e308, 1.6e308, HUGE, 1.2e154]),
    st.sampled_from([5e-324, sys.float_info.min, 1e-300, 2.7e-17, 1.1e-14]),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def loo_rows(draw):
    """2 to 9 rows of 0 to 3 features, some of which repeat a feature vector.

    Each row gets its own label, so one x often carries both labels;
    sometimes every label is the same, or one feature is constant.
    """
    d = draw(st.integers(0, 3), label="d")
    m = draw(st.integers(2, 9), label="m")
    distinct = draw(st.integers(1, m), label="distinct")
    xs = draw(st.lists(st.tuples(*[LOO_VALUES] * d), min_size=distinct, max_size=distinct))
    repeats = st.lists(st.sampled_from(xs), min_size=m - distinct, max_size=m - distinct)
    picks = draw(st.permutations(xs + draw(repeats)), label="picks")
    single = draw(st.sampled_from([None, None, None, 0, 1]), label="single class")
    labels = [
        single if single is not None else draw(st.integers(0, 1), label="y") for _ in picks
    ]
    if d and draw(st.booleans(), label="constant feature 0"):
        picks = [(picks[0][0], *x[1:]) for x in picks]
    return [Observation(x, y) for x, y in zip(picks, labels)]


LOO_CASES = [
    # The whole label-0 class sums to inf, but no fit sums it: the label-1
    # row is alone, so its held-out fit is a constant rule.
    obs((1e308, 0), (1e308, 0), (1e308, 1)),
    # Equal rows, and one x with both labels.
    obs((0.0, 0), (0.0, 0), (1.0, 1), (1.0, 0), (2.0, 1), (2.0, 1)),
    # Exact distance ties at 1 and 2 from every row.
    obs(((0.0, 0.0), 0), ((1.0, 0.0), 1), ((0.0, 1.0), 1), ((1.0, 1.0), 0), ((2.0, 0.0), 1)),
    # A midpoint that rounds up to hi, and every feature constant.
    obs((ONE, 1), (ONE_UP, 0), (ONE_UP2, 1), (ONE_UP2, 1)),
    obs(((1.0, 2.0), 1), ((1.0, 2.0), 0), ((1.0, 2.0), 0)),
    # Single-class rows, and differences whose squares overflow.
    obs((0.0, 1), (3.0, 1), (1.0, 1)),
    obs((-1.7e308, 0), (1.7e308, 1), (0.0, 1), (1.0, 0)),
    # Exact distance ties that a class mean off by one ulp would break: one
    # where float sums do not undo a held-out row ((2.0 + 2.1) - 2.1 is not
    # 2.0), and one whose sum of mixed signs carries between the centroid
    # batch's limbs.
    obs((2.0, 0), (2.0, 1), (2.1, 0)),
    obs((-2.0, 1), (2.0, 1), (3.0000000000000004, 1), (3.5, 0)),
]


def scalar_loo_errors(learner, rows):
    """The learner's leave-one-out error count of rows, by the kernels' per-key path.

    phi0 of all m rows, requested directly, is the sum of phi over the m
    rotations, with fits shared through the evaluator's `_learned`: the
    path every key takes that a batch does not answer. Against
    constant_learner(0), which misclassifies exactly the label-1 rows, that
    sum is the learner's count minus the number of label-1 rows.
    """
    kernel = ComparisonKernel(learner, constant_learner(0), g=len(rows) - 1)
    evaluator = KernelEvaluator(kernel, Dataset(tuple(rows)))
    total = evaluator.phi0(tuple(range(1, len(rows) + 1))) * len(rows)
    return round(total) + sum(row.y for row in rows)


@pytest.mark.parametrize("learner", ALL_LEARNERS)
class TestLeaveOneOutErrors:
    """The per-key scalar path's count is the count that m fits and predicts give."""

    @pytest.mark.parametrize("rows", LOO_CASES)
    def test_explicit_cases(self, learner, rows):
        assert outcome(lambda: scalar_loo_errors(learner, rows)) == outcome(
            lambda: refit_errors(learner, rows)
        )
        # The order of the rows changes nothing.
        assert outcome(lambda: scalar_loo_errors(learner, rows[::-1])) == outcome(
            lambda: refit_errors(learner, rows)
        )

    @settings(max_examples=300, deadline=None)
    @given(rows=loo_rows())
    def test_equals_refitting(self, learner, rows):
        assert outcome(lambda: scalar_loo_errors(learner, rows)) == outcome(
            lambda: refit_errors(learner, rows)
        )

    def test_needs_two_rows(self, learner):
        # A one-row multiset has no held-out fit: its kernel would need g = 0.
        with pytest.raises(ValueError, match="g must be >= 1"):
            scalar_loo_errors(learner, obs((0.0, 1)))


def test_centroid_overflow_does_not_depend_on_row_order():
    # fsum([1e308, 1e308, -1e308]) overflows and fsum([1e308, -1e308, 1e308])
    # does not; the fit sums each column in ascending order, so the order of
    # the learning rows cannot decide whether it raises.
    learning = obs((1e308, 0), (1e308, 0), (-1e308, 0), (0.0, 1))
    means = ((1e308 / 3,), (0.0,))
    for perm in itertools.permutations(learning):
        assert centroid_learner().fit(list(perm)).points == means


def test_parse_learner_identifiers():
    assert parse_learner("knn:3").k == 3
    assert parse_learner("const:1").label == 1
    parse_learner("centroid")
    parse_learner("stump")
    for bad in ("knn", "knn:x", "const:2", "forest", "centroid:3", "stump:1", ""):
        with pytest.raises(ValueError):
            parse_learner(bad)


def centroid_sum_leaves_the_batch(rows):
    """Whether the centroid batch's exact integer sums may not cover rows.

    They cover m rows unless a value reaches DBL_MAX / (2m), where a partial
    sum of fsum's could overflow, or some feature's nonzero values span more
    than 52 - m.bit_length() binary exponents.
    """
    m = len(rows)
    if max((abs(v) for row in rows for v in row.x), default=0.0) >= sys.float_info.max / (2 * m):
        return True
    for column in zip(*[row.x for row in rows]):
        exponents = [math.frexp(v)[1] for v in column if v]
        if exponents and max(exponents) - min(exponents) > 52 - m.bit_length():
            return True
    return False


def check_batch(learner, rows, subsets):
    """loo_errors_batch on subsets of rows, a list of (B, m) position lists, against refitting.

    The rows are passed sorted by (x, y), and every subset's positions
    ascending, as the kernels pass them. An answered count must equal
    refit_errors, m fits and predicts; a subset may go unanswered only where
    refitting raises OverflowError, and for the centroid where its exact
    sums do not cover the subset.
    Returns the answered mask.
    """
    rows = sorted(rows, key=lambda obs: (obs.x, obs.y))
    x = np.array([obs.x for obs in rows], dtype=float)
    y = np.array([obs.y for obs in rows])
    counts, answered = learner.loo_errors_batch(x, y, np.array(subsets))
    assert len(counts) == len(answered) == len(subsets)
    for subset, count, ok in zip(subsets, counts.tolist(), answered.tolist()):
        chosen = [rows[i] for i in subset]
        expected = outcome(lambda: refit_errors(learner, chosen))
        if ok:
            assert count == expected
        elif isinstance(learner, type(centroid_learner())):
            assert expected is OverflowError or centroid_sum_leaves_the_batch(chosen)
        else:
            assert expected is OverflowError
    return answered.tolist()


def check_holdout(learner, rows, subsets):
    """holdout_errors_batch on learning subsets of rows, a list of (B, g) position lists.

    The rows are passed sorted by (x, y), and every subset's positions
    ascending, as the kernels pass them; 1 <= g < len(rows). Where a subset
    is answered, each row's mark must say whether learner.fit(subset)
    misclassifies it, and the complement total the marks give against
    constant_learner(0) must equal that of Refitting's fits and predicts. A
    subset may go unanswered only where fitting and predicting raises
    OverflowError, and for the centroid where its exact sums do not cover
    the subset. Returns the answered mask.
    """
    rows = sorted(rows, key=lambda obs: (obs.x, obs.y))
    x = np.array([obs.x for obs in rows], dtype=float)
    y = np.array([obs.y for obs in rows])
    wrong, answered = learner.holdout_errors_batch(x, y, np.array(subsets))
    assert wrong.shape == (len(subsets), len(rows))
    assert answered.shape == (len(subsets),)
    kernel = ComparisonKernel(Refitting(learner), Refitting(constant_learner(0)), g=len(subsets[0]))
    refit = KernelEvaluator(kernel, Dataset(tuple(rows)))
    for subset, marks, ok in zip(subsets, wrong.tolist(), answered.tolist()):
        learning = [rows[i] for i in subset]
        expected = outcome(lambda: [learner.fit(learning).predict(row.x) != row.y for row in rows])
        if ok:
            assert marks == expected
            # constant_learner(0) misclassifies exactly the label-1 rows.
            phi = [mark - row.y for mark, row in zip(marks, rows)]
            total = sum(phi) - sum(phi[i] for i in subset)
            assert total == refit.phi_complement_total(tuple(i + 1 for i in subset))
        elif isinstance(learner, type(centroid_learner())):
            assert expected is OverflowError or centroid_sum_leaves_the_batch(learning)
        else:
            assert expected is OverflowError
    return answered.tolist()


@pytest.mark.parametrize("learner", ALL_LEARNERS)
class TestLeaveOneOutBatch:
    """loo_errors_batch answers with the count refitting gives, or leaves the subset to it."""

    @pytest.mark.parametrize("rows", LOO_CASES)
    def test_explicit_cases(self, learner, rows):
        # Every subset of at least two rows, one batch per size.
        for m in range(2, len(rows) + 1):
            check_batch(learner, rows, list(itertools.combinations(range(len(rows)), m)))

    @settings(max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_equals_loo_errors(self, learner, draw):
        rows = draw.draw(loo_rows(), label="rows")
        m = draw.draw(st.integers(2, min(8, len(rows))), label="m")
        subset = st.permutations(range(len(rows))).map(lambda p: sorted(p[:m]))
        subsets = draw.draw(st.lists(subset, min_size=1, max_size=4), label="subsets")
        check_batch(learner, rows, subsets)


@pytest.mark.parametrize("learner", ALL_LEARNERS)
class TestHoldoutBatch:
    """holdout_errors_batch marks the rows fitting and predicting get wrong, or leaves the subset."""

    @pytest.mark.parametrize("rows", LOO_CASES)
    def test_explicit_cases(self, learner, rows):
        # Every learning subset of one row up to all rows but one, one batch
        # per size.
        for g in range(1, len(rows)):
            check_holdout(learner, rows, list(itertools.combinations(range(len(rows)), g)))

    @settings(max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_equals_fitting(self, learner, draw):
        rows = draw.draw(loo_rows(), label="rows")
        g = draw.draw(st.integers(1, len(rows) - 1), label="g")
        subset = st.permutations(range(len(rows))).map(lambda p: sorted(p[:g]))
        subsets = draw.draw(st.lists(subset, min_size=1, max_size=4), label="subsets")
        check_holdout(learner, rows, subsets)


# Stump split midpoints outside [lo, hi): 1, 1 + 1ulp and 1 + 2ulp, whose
# midpoints round up to hi, the +-1.7e308 case of LOO_CASES, and near-limit
# values of one sign, whose midpoints overflow to +inf or -inf.
STUMP_MIDPOINT_CASES = [
    LOO_CASES[3],
    LOO_CASES[6],
    obs((HUGE, 0), (1.6e308, 1), (-HUGE, 1), (-1.6e308, 0), (0.0, 1), (1.0, 0)),
]


@pytest.mark.parametrize("rows", STUMP_MIDPOINT_CASES)
def test_stump_batches_answer_every_subset(rows):
    # Both batches answer every subset of every size, with the counts and
    # marks that refitting gives.
    n = len(rows)
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        if k >= 2:
            assert all(check_batch(stump_learner(), rows, subsets))
        if k < n:
            assert all(check_holdout(stump_learner(), rows, subsets))


@st.composite
def centroid_ties(draw):
    """Rows whose query lies exactly midway between the two class means.

    The near class has 2 to 8 rows whose mean, fsum / count, is a; the far
    class has one row, at b = a + 2t, and the query lies at a + t, with t a
    power of two times ulp(a). Both squared distances are then t * t, so
    predict's exact tie goes to 0. A mean one ulp off either way breaks the
    tie, and for one of the two labellings that flips the prediction to 1.
    Returns (learning rows, query row); the query carries the far class's
    label, so a fit on every other row sees the same two classes.
    """
    # Tenths, and floats from 2**-10 up in magnitude, which the centroid
    # batches' exact sums cover.
    floats = st.floats(2.0**-10, 10.0) | st.floats(-10.0, -(2.0**-10))
    values = draw(
        st.lists(st.integers(-100, 100).map(lambda i: i / 10) | floats, min_size=2, max_size=8),
        label="values",
    )
    near = draw(st.integers(0, 1), label="near label")
    a = math.fsum(sorted(values)) / len(values)
    t = math.ulp(a) * 2.0 ** draw(st.integers(0, 30)) * draw(st.sampled_from([-1.0, 1.0]))
    query, b = a + t, a + 2 * t
    assume(query - a == t == b - query)
    learning = [Observation((v,), near) for v in values] + [Observation((b,), 1 - near)]
    return learning, Observation((query,), 1 - near)


class TestCentroidBatch:
    """The centroid batch answers ordinary data, and leaves the rest to refitting."""

    @staticmethod
    def gaussian_rows(residue):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 5))
        if residue:
            x[17, 3] = 2.7e-17
        y = (x[:, 0] + rng.standard_normal(200) > 0).astype(int)
        return sorted(
            [Observation(tuple(map(float, row)), label) for row, label in zip(x, y.tolist())],
            key=lambda obs: (obs.x, obs.y),
        )

    def test_gaussian_subsets_are_answered_unless_they_hold_a_residue(self):
        rng = np.random.default_rng(5)
        subsets = [sorted(rng.choice(200, 21, replace=False).tolist()) for _ in range(150)]
        assert all(check_batch(centroid_learner(), self.gaussian_rows(False), subsets))
        # One value 2**-55 beside values near 1 spans more exponents than
        # the limbs cover at m = 21, so exactly the subsets holding it go
        # unanswered.
        rows = self.gaussian_rows(True)
        (residue,) = [i for i, row in enumerate(rows) if 2.7e-17 in row.x]
        holding = [residue in subset for subset in subsets]
        assert 0 < sum(holding) < len(subsets)
        answered = check_batch(centroid_learner(), rows, subsets)
        assert answered == [not held for held in holding]

    @settings(max_examples=300, deadline=None)
    @given(case=centroid_ties())
    def test_class_means_are_exact_at_ties(self, case):
        # Both batches must compute the near class's mean exactly as fit
        # does: the query's held-out fit, and the fit on the learning rows.
        learning, query = case
        rows = sorted(learning + [query], key=lambda obs: (obs.x, obs.y))
        assert check_batch(centroid_learner(), rows, [list(range(len(rows)))]) == [True]
        subset = [i for i, row in enumerate(rows) if row is not query]
        assert check_holdout(centroid_learner(), rows, [subset]) == [True]

    def test_large_subsets_are_left_to_refitting(self):
        # From 1,024 rows the low limbs' sum could pass 2**63.
        x = np.arange(1024.0)[:, None]
        y = np.arange(1024) % 2
        for m in (1023, 1024):
            _, answered = centroid_learner().loo_errors_batch(x, y, np.arange(m)[None])
            assert answered.tolist() == [m < 1024]
            _, answered = centroid_learner().holdout_errors_batch(x, y, np.arange(m)[None])
            assert answered.tolist() == [m < 1024]


@st.composite
def exact_sum_cases(draw):
    """(points, selection) for _exact_sums: B subsets of m rows of d features.

    Each feature value is zero or a signed 53-bit-or-shorter mantissa
    scaled into one example-wide window of binary exponents, which may sit
    among the subnormals, near 1 or near the float limit, and may be
    narrower or wider than the exact sums cover.
    """
    count = draw(st.integers(1, 3), label="B")
    m = draw(st.integers(1, 24), label="m")
    d = draw(st.integers(1, 3), label="d")
    k = draw(st.integers(1, 4), label="k")
    lowest = draw(st.sampled_from([-1080, -1060, -1030, -200, -60, -1, 0, 40, 960, 1010]))
    # Spans at the edge of the cover (52 - m.bit_length(), 47 to 51 here)
    # are drawn often, and so are exponents at both ends of the window.
    span = draw(st.one_of(st.integers(0, 70), st.integers(45, 52)), label="span")
    highest = min(lowest + span, 1024)
    mantissa = st.one_of(
        st.integers(1, 8), st.integers(2**52, 2**53 - 1), st.integers(1, 2**53 - 1)
    )
    value = st.one_of(
        st.just(0.0),
        st.builds(
            lambda sign, top, exponent: sign * math.ldexp(top, exponent - top.bit_length()),
            st.sampled_from([-1, 1]),
            mantissa,
            st.one_of(st.sampled_from([lowest, highest]), st.integers(lowest, highest)),
        ),
    )
    points = draw(st.lists(value, min_size=count * m * d, max_size=count * m * d))
    selection = draw(st.lists(st.integers(0, 1), min_size=count * k * m, max_size=count * k * m))
    return (
        np.array(points, dtype=float).reshape(count, m, d),
        np.array(selection, dtype=np.int64).reshape(count, k, m),
    )


class TestExactSums:
    @settings(max_examples=400, deadline=None)
    @given(case=exact_sum_cases())
    def test_covered_sums_equal_fsum(self, case):
        points, selection = case
        count, m, d = points.shape
        sums, covered = _exact_sums(points, selection)
        for b in range(count):
            # The documented cover: every feature's nonzero values within
            # 52 - m.bit_length() binary exponents, every value below
            # DBL_MAX / (2m).
            spans = []
            for f in range(d):
                exponents = [math.frexp(v)[1] for v in points[b, :, f].tolist() if v]
                spans.append(max(exponents) - min(exponents) if exponents else 0)
            largest = np.abs(points[b]).max()
            assert covered[b] == (
                max(spans) <= 52 - m.bit_length() and largest < sys.float_info.max / (2 * m)
            )
            if not covered[b]:
                continue
            for i, row in enumerate(selection[b].tolist()):
                picked = points[b][np.array(row, dtype=bool)]
                for f in range(d):
                    assert sums[b, i, f] == math.fsum(picked[:, f].tolist())
