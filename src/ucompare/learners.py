"""Deterministic, permutation-symmetric learning algorithms and their 0-1 error.

Every learner here is a pure function of the multiset of learning
observations: refitting the same multiset gives a predictor with identical
outputs, and reordering the learning set changes nothing, down to which
inputs overflow. That symmetry is what licenses averaging the comparison
kernel over unordered subsets, so all tie-breaking below is explicit rather
than incidental.

Besides fit, every built-in learner has two numpy batches over many subsets
at once. loo_errors_batch(x, y, subsets) counts the rows of each subset that
the learner misclassifies when fitted on the subset's other rows;
holdout_errors_batch(x, y, subsets) marks, for each subset, every row of the
dataset that the learner misclassifies when fitted on the subset. The
kernels call them to fill their memos with every new multiset of a chunk of
sampled draws before the draws are read. Each returns a mask of the subsets
it answered; a subset it leaves unanswered (one whose fit or predict would
raise, for the centroid also one whose class sums its exact integers do
not cover) is evaluated by fitting and predicting when it is requested, so
it raises there as it would without the batch. The stump's batches answer
every subset, including those whose split midpoints round up or overflow.
A learner's two batches share one numpy body that fits many learning sets
and predicts at each fit's query rows (_votes, _nearer_mean,
_stump_predictions); a batch only builds the fits' inputs. A leave-one-out
fit learns on a subset without one row and predicts that row; a hold-out fit
learns on the whole subset and predicts every row of the dataset.

The centroid's fit takes each class mean as fsum / count, and fsum is
correctly rounded. Both its batches sum each column's values exactly as
int64 integers on a common binary grid (_exact_sums), round each sum once to
a float, which is therefore fsum's value bit for bit, and divide it as fit
does.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from typing import Iterable, Sequence

from .dataset import Observation


def misclassification_loss(predicted: int, actual: int) -> int:
    """0-1 loss: 1 when the labels differ, else 0."""
    if predicted not in (0, 1):
        raise ValueError(f"predicted label must be 0 or 1, got {predicted!r}")
    if actual not in (0, 1):
        raise ValueError(f"actual label must be 0 or 1, got {actual!r}")
    return 1 if predicted != actual else 0


def _check_finite(largest_squared_distance: float) -> None:
    """Raise OverflowError when the largest squared distance is inf.

    Distances past the float limit cannot be ranked. This covers a difference
    that overflowed to inf, a square that overflowed and a sum of squares
    that overflowed.
    """
    if largest_squared_distance == math.inf:
        raise OverflowError("squared distance exceeds the float range")


def _majority(ones: int, size: int) -> int:
    """Majority label of size labels of which ones are 1; a tie gives 0."""
    return 1 if 2 * ones > size else 0


def _squared_distances(x: Sequence[float], points: Iterable[Sequence[float]]) -> list[float]:
    """Squared Euclidean distance from x to each point, each summed left to right.

    Each difference is squared as t * t, as the numpy batches square it (a
    float's t ** 2 goes through libm pow, which can round differently), and
    the squares are added left to right, as the batches add their columns.
    sum() would not do: from Python 3.12 it adds floats with compensation.
    Since a - b == -(b - a) exactly, the distance from x to p equals the
    distance from p to x.
    """
    d2 = []
    for p in points:
        s = 0.0
        for t in map(operator.sub, x, p):
            s = s + t * t
        d2.append(s)
    return d2


def _distance_table(queries, points):
    """d2[..., q, p]: the squared distance from queries[..., q, :] to points[..., p, :].

    The numpy form of _squared_distances, with the same rounding: each
    difference squared as t * t, the columns added left to right (numpy's
    sum over an axis adds pairwise from 8 terms up). The leading dimensions
    of queries (..., Q, d) and points (..., P, d) broadcast; a distance past
    the float range is inf, without a warning.
    """
    import numpy as np

    lead = np.broadcast_shapes(queries.shape[:-2], points.shape[:-2])
    d2 = np.zeros((*lead, queries.shape[-2], points.shape[-2]))
    with np.errstate(over="ignore"):
        for j in range(queries.shape[-1]):
            t = queries[..., :, None, j] - points[..., None, :, j]
            d2 += t * t
    return d2


class Predictor:
    """Fitted model mapping a feature vector to a label in {0, 1}."""

    def predict(self, x: Sequence[float]) -> int:
        raise NotImplementedError

    def predict_batch(self, xs: Sequence[Sequence[float]]) -> list[int]:
        """Labels of the rows xs, each the tuple `Observation.x` that predict receives.

        The kernels never call it; it stays only because the benchmark's
        traced predictor (perfbench/trace_run.py) wraps it.
        """
        return [self.predict(x) for x in xs]


class Learner:
    """Factory for predictors; fit must be deterministic and symmetric.

    A subclass may add loo_errors_batch(x, y, subsets) -> (counts,
    answered) and holdout_errors_batch(x, y, subsets) -> (wrong, answered);
    the kernels call each only when both learners of a comparison have it.
    x (N, d) float and y (N,) int are a dataset's rows sorted by (x, y), and
    subsets a (B, k) int array of ascending positions into them, so each
    subset lists its rows in that canonical order. Wherever the bool
    answered[b] is true:
    - loo_errors_batch (k >= 2): counts[b] is the number of rows of subset b
      that the learner misclassifies when fitted on the subset's other rows;
    - holdout_errors_batch (k >= 1): the bool wrong[b, r] says whether the
      learner fitted on subset b misclassifies row r of x, for every r.
    answered[b] is false wherever such a fit or predict would raise, and may
    be false wherever else the batch cannot match it exactly; of the
    built-in learners, only the centroid's batches leave such subsets.
    """

    def fit(self, learning_set: Sequence[Observation]) -> Predictor:
        raise NotImplementedError


class _ConstantPredictor(Predictor):
    def __init__(self, label: int):
        self.label = label

    def predict(self, x):
        return self.label


class _ConstantLearner(Learner):
    def __init__(self, label: int):
        if label not in (0, 1):
            raise ValueError(f"constant label must be 0 or 1, got {label!r}")
        self.label = label

    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        return _ConstantPredictor(self.label)

    def loo_errors_batch(self, x, y, subsets):
        import numpy as np

        return (y[subsets] != self.label).sum(axis=1), np.ones(len(subsets), dtype=bool)

    def holdout_errors_batch(self, x, y, subsets):
        import numpy as np

        wrong = np.broadcast_to(y != self.label, (len(subsets), len(y)))
        return wrong, np.ones(len(subsets), dtype=bool)


def constant_learner(label: int) -> Learner:
    """Learner that ignores the data and always predicts the given label."""
    return _ConstantLearner(label)


class _KnnPredictor(Predictor):
    def __init__(self, points: Sequence[tuple[float, ...]], labels: Sequence[int], k: int):
        self.points = points
        self.labels = labels
        self.k = k

    def predict(self, x):
        x = tuple(x)
        if len(x) != len(self.points[0]):
            raise ValueError(
                f"query has {len(x)} features, the fitted points have {len(self.points[0])}"
            )
        d2 = _squared_distances(x, self.points)
        _check_finite(max(d2))
        # Stable sort: equal distances resolve to the smaller canonical index.
        order = sorted(range(len(d2)), key=d2.__getitem__)
        return _majority(sum(self.labels[i] for i in order[: self.k]), self.k)


def _votes(d2, labels, k):
    """Labels that B kNN fits predict: predicted[b, q] for query q of fit b.

    d2 (B, Q, P) holds the squared distances from each fit's queries to its
    P points and labels (B, P) the points' labels. The stable sort reads
    equal distances in canonical order, as predict's does on the fitted
    points, and a tied vote of the k nearest predicts 0.
    """
    import numpy as np

    nearest = np.argsort(d2, axis=2, kind="stable")[..., :k]
    return 2 * np.take_along_axis(labels[:, None], nearest, axis=2).sum(axis=2) > k


class _KnnLearner(Learner):
    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        self.k = k

    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        # Canonical order: features lexicographic, then label.
        points, labels = zip(*sorted([(obs.x, obs.y) for obs in learning_set]))
        return _KnnPredictor(points, labels, min(self.k, len(points)))

    def loo_errors_batch(self, x, y, subsets):
        import numpy as np

        points, labels = x[subsets], y[subsets]
        m = subsets.shape[1]
        # d2[b, i, j]: the squared distance between rows i and j of subset b.
        d2 = _distance_table(points, points)
        answered = ~np.isinf(d2).any(axis=(1, 2))
        # A held-out row is no neighbour of itself.
        d2[:, range(m), range(m)] = np.inf
        return (_votes(d2, labels, min(self.k, m - 1)) != labels).sum(axis=1), answered

    def holdout_errors_batch(self, x, y, subsets):
        import numpy as np

        # d2[b, r, j]: the squared distance from row r of x to point j of
        # subset b; predict raises wherever some distance is infinite.
        d2 = _distance_table(x[None], x[subsets])
        answered = ~np.isinf(d2).any(axis=(1, 2))
        return _votes(d2, y[subsets], min(self.k, subsets.shape[1])) != y, answered


def knn_learner(k: int) -> Learner:
    """k-nearest-neighbour majority vote (Euclidean distance).

    Distance ties go to the smaller index after canonically sorting the
    learning set; a tied vote predicts 0. k is capped at the learning-set
    size. predict and both batches compute the same squared distances: each
    difference squared as t * t, the squares added left to right. predict
    raises ValueError for a query whose width differs from the learning
    set's.
    """
    return _KnnLearner(k)


def _column_mean(values: list[float]) -> float:
    """Mean of one feature over a class's rows, given in ascending order.

    fsum is correctly rounded, so the mean does not depend on the order of
    the values, but whether a partial sum overflows does: fsum([1e308,
    1e308, -1e308]) raises OverflowError and fsum([1e308, -1e308, 1e308])
    does not. Summing in ascending order makes that, too, a function of the
    multiset of values.
    """
    return math.fsum(values) / len(values)


# The labels of a centroid predictor's two points, shared by every fit.
_CENTROID_LABELS = (0, 1)

# The centroid batches split an exact integer into limbs hi * 2**53 + lo.
_LIMB = 53


def _exact_sums(points, selection):
    """Column sums of selected rows of each subset, each rounded once, as fsum rounds it.

    points is a (B, m, d) float array and selection a (B, k, m) int64 array
    of 0s and 1s: sums[b, i] is the sum of the rows j of points[b] with
    selection[b, i, j] = 1. Returns (sums, covered), sums a (B, k, d) float
    array. Where covered[b] is true, every sum of subset b equals math.fsum
    of the same values, and no partial sum of fsum's overflows. covered[b]
    is false where that cannot be guaranteed: m >= 1024; some feature's
    nonzero values span more than 52 - m.bit_length() binary exponents; or
    a value reaches DBL_MAX / (2m), where a partial sum of fsum's could
    overflow.
    """
    import numpy as np

    count, m, d = points.shape
    if m >= 1024:
        # m low limbs could sum past 2**63.
        return np.zeros((count, selection.shape[1], d)), np.zeros(count, dtype=bool)
    # 1. Exact integers. A value is M * 2**(E - 53) with |M| < 2**53. On
    # its (subset, feature) column's grid 2**(e - 53), e the smallest E
    # of the column's nonzero values, it is M * 2**s with s = E - e,
    # split into limbs hi * 2**53 + lo, 0 <= lo < 2**53.
    fraction, exponent = np.frexp(points)
    mantissa = np.ldexp(fraction, _LIMB).astype(np.int64)
    nonzero = mantissa != 0
    grid = np.where(nonzero, exponent, 1 << 20).min(axis=1, keepdims=True)
    shift = np.where(nonzero, exponent - grid, 0)
    # Up to this shift, |hi| <= 2**s and m < 2**m.bit_length() keep any
    # sum of m high limbs, carry included, below 2**52 + m, so it
    # converts to a float exactly.
    limit = 52 - m.bit_length()
    covered = shift.max(axis=(1, 2), initial=0) <= limit
    covered &= np.abs(points).max(axis=(1, 2), initial=0.0) < sys.float_info.max / (2 * m)
    shift = np.minimum(shift, limit).astype(np.int64)
    limbs = np.stack(
        [
            mantissa >> (_LIMB - shift),
            (mantissa & ((1 << (_LIMB - shift)) - 1)) << shift,
        ]
    )
    # 2. Exact sums, limb by limb: (2, B, k, d).
    sums = selection @ limbs
    # 3. Rounding. With the carry normalised, hi * 2**53 + lo adds two
    # exact floats, so it is the exact sum rounded once to 53 bits, and
    # ldexp scales that exactly: to fsum's value. A sum below the
    # normal range is a multiple of 2**-1074 under 2**52 of them, so
    # there it is exact throughout and not rounded a second time.
    sums[0] += sums[1] >> _LIMB
    sums[1] &= (1 << _LIMB) - 1
    with np.errstate(all="ignore"):
        return np.ldexp(sums[0] * 2.0**_LIMB + sums[1], grid - _LIMB), covered


def _nearer_mean(sums, sizes, queries):
    """Labels that centroid fits predict, and where they predict without raising.

    sums (..., 2, d) and sizes (..., 2) are each fit's class sums and sizes,
    and queries (..., Q, d) its queries; the leading dimensions broadcast.
    A fit on both classes predicts the nearer mean, an exact tie going to 0,
    and raises OverflowError where some squared distance is infinite; a fit
    on one class predicts that class. Returns (predicted, finite), the bool
    arrays (..., Q) and (...).
    """
    import numpy as np

    both = sizes.all(axis=-1)
    with np.errstate(all="ignore"):
        # The means as _column_mean divides them.
        means = sums / np.maximum(sizes, 1)[..., None]
        d2 = _distance_table(queries, means)
    finite = ~(both & np.isinf(d2).any(axis=(-2, -1)))
    return np.where(both[..., None], d2[..., 1] < d2[..., 0], sizes[..., 1:] > 0), finite


class _CentroidLearner(Learner):
    """The nearest-class-centroid rule; see centroid_learner."""

    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        by_label: dict[int, list[tuple]] = {0: [], 1: []}
        for obs in learning_set:
            by_label[obs.y].append(obs.x)
        if not by_label[0] or not by_label[1]:
            return _ConstantPredictor(0 if by_label[0] else 1)
        means = tuple(
            tuple(_column_mean(sorted(col)) for col in zip(*rows)) for rows in by_label.values()
        )
        return _KnnPredictor(means, _CENTROID_LABELS, 1)

    def loo_errors_batch(self, x, y, subsets):
        """Learner.loo_errors_batch in one numpy pass over the (B, m, d) points.

        Every class sum a held-out fit takes, whole or without the held-out
        row, comes from _exact_sums, so it is fsum's value and each mean,
        distance and prediction is fit's and predict's. A subset is left
        unanswered, to be refitted, where _exact_sums does not cover it, or
        where a fit that predicts has an infinite squared distance, where
        predict raises OverflowError.
        """
        import numpy as np

        points, labels = x[subsets], y[subsets]
        count, m = subsets.shape
        rows = np.arange(count)[:, None]
        classes = (labels[:, None] == np.arange(2)[:, None]).astype(np.int64)
        # The class totals (B, 2, d), then each held-out row's own class
        # without it (B, m, d).
        selection = np.concatenate(
            [classes, classes[rows, labels] - np.eye(m, dtype=np.int64)], axis=1
        )
        sums, answered = _exact_sums(points, selection)
        # Held-out row i's fit has its own class without it and the other
        # class whole: sums and sizes (B, m, 2, d) and (B, m, 2).
        own_class = labels[..., None] == np.arange(2)
        sizes = classes.sum(axis=2)[:, None] - own_class
        sums = np.where(own_class[..., None], sums[:, 2:, None], sums[:, None, :2])
        predicted, finite = _nearer_mean(sums, sizes, points[:, :, None])
        return (predicted[..., 0] != labels).sum(axis=1), answered & finite.all(axis=1)

    def holdout_errors_batch(self, x, y, subsets):
        """Learner.holdout_errors_batch in one numpy pass over the (B, N, 2, d) differences.

        The class sums come from _exact_sums, so each mean is fit's and each
        prediction predict's. A subset is left unanswered, to be refitted,
        where _exact_sums does not cover it, or where its fit sees both
        classes and some squared distance is infinite, where predict raises
        OverflowError.
        """
        import numpy as np

        labels = y[subsets]
        classes = (labels[:, None] == np.arange(2)[:, None]).astype(np.int64)
        sums, answered = _exact_sums(x[subsets], classes)
        predicted, finite = _nearer_mean(sums, classes.sum(axis=2), x[None])
        return predicted != y, answered & finite


def centroid_learner() -> Learner:
    """Nearest-class-centroid rule: 1-NN over the two class means.

    Predicts the label of the closer class mean; a single-class learning set
    yields that class everywhere. The label-0 mean is listed first, so 1-NN's
    tie rule sends an exact distance tie to 0, and a query of the wrong width
    raises ValueError as it does for knn_learner.
    """
    return _CentroidLearner()


class _StumpPredictor(Predictor):
    def __init__(self, feature: int, threshold: float, label_le: int, label_gt: int):
        self.feature = feature
        self.threshold = threshold
        self.label_le = label_le
        self.label_gt = label_gt

    def predict(self, x):
        return self.label_le if x[self.feature] <= self.threshold else self.label_gt


def _best_stump(
    columns: Iterable[list[tuple[float, int]]], size: int, total_ones: int
) -> Predictor:
    """The stump fitted on size rows, total_ones of them labelled 1.

    columns yields, feature by feature, the rows' (value, label) pairs in
    ascending order; a column is not read once a zero-error split is found.
    """
    # Candidates arrive in nondecreasing (feature, threshold) order, since
    # midpoints of increasing pairs never decrease. Keeping the first one
    # with the fewest errors is therefore the (errors, feature, threshold)
    # order; an equal (feature, threshold) makes the same split. No later
    # candidate beats zero errors, so the scan stops at the first.
    best = None  # (feature, threshold, rows left, ones left)
    best_errors = size + 1
    for j, pairs in enumerate(columns):
        lo = pairs[0][0]
        ones = 0  # label-1 rows before the current one
        for k, (hi, y) in enumerate(pairs):
            if lo != hi:
                threshold = (lo + hi) / 2.0
                if lo <= threshold < hi:
                    n_le, ones_le = k, ones
                else:
                    # The midpoint rounded up to hi or overflowed to
                    # +-inf; the split is still the rows x <= threshold,
                    # the pairs that sort before (threshold, 1) or equal it.
                    n_le = bisect_right(pairs, (threshold, 1))
                    ones_le = sum(label for _, label in pairs[:n_le])
                zeros_le = n_le - ones_le
                ones_gt = total_ones - ones_le
                zeros_gt = size - n_le - ones_gt
                # Each side predicts its majority, so it misclassifies
                # its minority (conditionals, as min() costs a call).
                errors = (ones_le if ones_le < zeros_le else zeros_le) + (
                    ones_gt if ones_gt < zeros_gt else zeros_gt
                )
                if errors < best_errors:
                    best_errors = errors
                    best = (j, threshold, n_le, ones_le)
                    if not errors:
                        break
            lo = hi
            ones += y
        if not best_errors:
            break
    if best is None:
        # Every feature is constant on the learning set; no split exists.
        return _ConstantPredictor(_majority(total_ones, size))
    j, threshold, n_le, ones_le = best
    return _StumpPredictor(
        j,
        threshold,
        _majority(ones_le, n_le),
        _majority(total_ones - ones_le, size - n_le),
    )


def _stump_predictions(values, labels, ones, queries):
    """Labels that B stump fits predict at their queries, as _best_stump's fits predict.

    values (B, d, size) holds each fit's learning columns, each sorted
    ascending, labels the rows' labels in the same order, ones (B,) the
    number of rows labelled 1, and queries (B, Q, d) the rows each fit
    predicts. Candidate k of a column splits at the midpoint of rows k and
    k + 1, and puts the rows x <= midpoint left: its first k + 1 rows
    wherever the midpoint lies in [lo, hi). The fit is the first candidate
    with the fewest errors, in (feature, threshold) order; where there is
    none, every feature being constant, the fit predicts the majority.
    Returns a (B, Q) bool array.
    """
    import numpy as np

    count, d, size = values.shape
    majority = (2 * ones > size)[:, None]
    if size == 1 or not d:
        # One learning row, or no feature: no split exists.
        return np.broadcast_to(majority, (count, queries.shape[1]))
    lo, hi = values[..., :-1], values[..., 1:]
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    split = lo != hi
    ones_le = np.cumsum(labels[..., :-1], axis=-1)
    n_le = np.broadcast_to(np.arange(1, size), ones_le.shape)
    outside = split & ((threshold < lo) | (threshold >= hi))
    if outside.any():
        # Where the midpoint rounded up to hi or overflowed to +-inf, count
        # the rows x <= threshold of its column, as fit's binary search
        # finds them.
        at, n_le = np.nonzero(outside), n_le.copy()
        left = values[at[:-1]] <= threshold[at][:, None]
        n_le[at] = left.sum(axis=1)
        ones_le[at] = (left * labels[at[:-1]]).sum(axis=1)
    ones_gt = ones[:, None, None] - ones_le
    # Each side predicts its majority, so it misclassifies its minority; a
    # pair of equal rows is no split.
    errors = np.minimum(ones_le, n_le - ones_le) + np.minimum(ones_gt, size - n_le - ones_gt)
    errors = np.where(split, errors, size + 1).reshape(count, -1)
    best = errors.argmin(axis=1)
    rows = np.arange(count)
    feature, position = np.divmod(best, size - 1)
    fit = rows, feature, position
    left, ones_left = n_le[fit], ones_le[fit]
    goes_left = queries[rows, :, feature] <= threshold[fit][:, None]
    predicted = np.where(
        goes_left, (2 * ones_left > left)[:, None], (2 * (ones - ones_left) > size - left)[:, None]
    )
    return np.where(errors[rows, best][:, None] <= size, predicted, majority)


class _StumpLearner(Learner):
    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        labels = [obs.y for obs in learning_set]
        columns = zip(*[obs.x for obs in learning_set])
        return _best_stump(
            (sorted(zip(column, labels)) for column in columns), len(labels), sum(labels)
        )

    def loo_errors_batch(self, x, y, subsets):
        import numpy as np

        points, labels = x[subsets], y[subsets]
        count, m = subsets.shape
        d = x.shape[1]
        columns = points.transpose(0, 2, 1)
        # Each subset's columns sorted once; held-out row i's learning column
        # is its sorted column without row i: (count * m, d, m - 1) fits.
        order = np.argsort(columns, axis=2, kind="stable")
        keep = order[:, None] != np.arange(m)[:, None, None]
        rows = np.arange(count)[:, None, None]
        shape, learning = keep.shape, (count * m, d, m - 1)
        values = np.broadcast_to(columns[rows, np.arange(d)[:, None], order][:, None], shape)
        sorted_labels = np.broadcast_to(labels[rows, order][:, None], shape)
        # ones[b, i]: label-1 rows that row i's held-out fit learns on.
        ones = labels.sum(axis=1, keepdims=True) - labels
        predicted = _stump_predictions(
            values[keep].reshape(learning),
            sorted_labels[keep].reshape(learning),
            ones.reshape(-1),
            points.reshape(count * m, 1, d),
        )
        return (predicted.reshape(count, m) != labels).sum(axis=1), np.ones(count, dtype=bool)

    def holdout_errors_batch(self, x, y, subsets):
        import numpy as np

        labels = y[subsets]
        count = len(subsets)
        # Each subset's columns sorted once: (count, d, size).
        columns = x[subsets].transpose(0, 2, 1)
        order = np.argsort(columns, axis=2, kind="stable")
        predicted = _stump_predictions(
            np.take_along_axis(columns, order, axis=2),
            labels[np.arange(count)[:, None, None], order],
            labels.sum(axis=1),
            np.broadcast_to(x, (count, *x.shape)),
        )
        return predicted != y, np.ones(count, dtype=bool)


def stump_learner() -> Learner:
    """Best single-feature threshold split.

    Thresholds are the float midpoints (lo + hi) / 2.0 of consecutive
    distinct values per feature, and rows with x <= threshold go left. The
    midpoint may round up to hi, or overflow to +-inf for values near the
    float limit; the split is still exactly the rows x <= threshold. Each
    side predicts its own majority (ties toward 0). Equal-error candidates
    resolve by (feature index, threshold) ascending; if no split exists the
    stump degenerates to the overall majority label. Per feature, one sort
    and one pass with a running count of label-1 rows make a fit O(d g log g)
    for g rows and d features; the pass finds the rows x <= threshold by
    binary search only where the midpoint rounded up or overflowed. The scan
    stops at the first zero-error split, which no later candidate can beat.
    """
    return _StumpLearner()


def parse_learner(identifier: str) -> Learner:
    """Build a learner from its CLI identifier.

    Recognized forms: "knn:<k>", "centroid", "stump", "const:<0|1>".
    """
    name, _, arg = identifier.partition(":")
    if name == "knn":
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"bad knn parameter in {identifier!r}") from None
        return knn_learner(k)
    if name == "const":
        if arg not in ("0", "1"):
            raise ValueError(f"constant learner needs const:0 or const:1, got {identifier!r}")
        return constant_learner(int(arg))
    if name == "centroid" and not arg:
        return centroid_learner()
    if name == "stump" and not arg:
        return stump_learner()
    raise ValueError(f"unknown learner identifier {identifier!r}")
