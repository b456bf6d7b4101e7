"""Deterministic, permutation-symmetric learning algorithms and their 0-1 error.

Every learner here is a pure function of the multiset of learning
observations: refitting the same multiset gives a predictor with identical
outputs, and reordering the learning set changes nothing, down to which
inputs overflow. That symmetry is what licenses averaging the comparison
kernel over unordered subsets, so all tie-breaking below is explicit rather
than incidental.

Besides fit, every built-in learner has loo_errors_batch(x, y, subsets):
for many subsets at once, with numpy, the number of rows of each subset that
the learner misclassifies when fitted on the subset's other rows. The
kernels call it to fill their memo with every new multiset of a chunk of
sampled draws before the draws are read. It returns a mask of the subsets
it answered; a subset it leaves unanswered (one whose fit or predict would
raise, or, for the stump, whose split thresholds need the exact fallback)
is evaluated by fitting and predicting when it is requested, so it raises
there as it would without the batch.
"""

from __future__ import annotations

import math
import operator
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

    Each difference is squared as t * t, which is correctly rounded as
    numpy's ** 2 on the batch path is (a float's t ** 2 goes through libm
    pow), and the squares are added left to right, as the batch path adds
    its columns. sum() would not do: from Python 3.12 it adds floats with
    compensation. Since a - b == -(b - a) exactly, the distance from x to p
    equals the distance from p to x.
    """
    d2 = []
    for p in points:
        s = 0.0
        for t in map(operator.sub, x, p):
            s = s + t * t
        d2.append(s)
    return d2


def _without(items: list, item) -> list:
    """A copy of items without its first occurrence of item; a sorted list stays sorted."""
    rest = items.copy()
    rest.remove(item)
    return rest


class Predictor:
    """Fitted model mapping a feature vector to a label in {0, 1}."""

    def predict(self, x: Sequence[float]) -> int:
        raise NotImplementedError

    def predict_batch(self, xs: Sequence[Sequence[float]]) -> list[int]:
        """Labels of the rows xs, each the tuple `Observation.x` that predict receives."""
        return [self.predict(x) for x in xs]


class Learner:
    """Factory for predictors; fit must be deterministic and symmetric.

    A subclass may add loo_errors_batch(x, y, subsets) -> (counts,
    answered); the kernels call it only when both learners of a comparison
    have it. x (N, d) float and y (N,) int are a dataset's rows sorted by
    (x, y), and subsets a (B, m) int array, m >= 2, of ascending positions
    into them, so each subset lists its rows in that canonical order.
    Wherever the bool answered[b] is true, counts[b] must be the number of
    rows of subset b that the learner misclassifies when fitted on the
    subset's other rows. answered[b] is false wherever such a fit or predict
    would raise, and may be false wherever else the batch cannot match it
    exactly.
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


def constant_learner(label: int) -> Learner:
    """Learner that ignores the data and always predicts the given label."""
    return _ConstantLearner(label)


class _KnnPredictor(Predictor):
    def __init__(self, points: Sequence[tuple[float, ...]], labels: Sequence[int], k: int):
        self.points = points
        self.labels = labels
        self.k = k

    def _check_width(self, width: int) -> None:
        """Raise ValueError unless a query has the fitted points' width."""
        if width != len(self.points[0]):
            raise ValueError(
                f"query has {width} features, the fitted points have {len(self.points[0])}"
            )

    def predict(self, x):
        x = tuple(x)
        self._check_width(len(x))
        d2 = _squared_distances(x, self.points)
        _check_finite(max(d2))
        # Stable sort: equal distances resolve to the smaller canonical index.
        order = sorted(range(len(d2)), key=d2.__getitem__)
        return _majority(sum(self.labels[i] for i in order[: self.k]), self.k)

    def predict_batch(self, xs):
        # Imported here: only sampled mode batches predictions, and complete
        # mode runs without numpy.
        import numpy as np

        q = np.asarray(xs, dtype=float)
        self._check_width(q.shape[1])
        points = np.array(self.points, dtype=float)
        # Columns are added left to right, as predict adds them;
        # numpy's sum over an axis adds pairwise from 8 terms up.
        d2 = np.zeros((len(q), len(points)))
        with np.errstate(over="ignore"):
            for j in range(points.shape[1]):
                d2 += (q[:, j, None] - points[None, :, j]) ** 2
        _check_finite(d2.max())
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes = np.asarray(self.labels)[order].sum(axis=1)
        return [_majority(v, self.k) for v in votes.tolist()]


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
        count, m = subsets.shape
        k = min(self.k, m - 1)
        # d2[b, i, j]: the squared distance between rows i and j of subset
        # b, with predict's expression, columns added left to right.
        d2 = np.zeros((count, m, m))
        with np.errstate(over="ignore"):
            for j in range(x.shape[1]):
                t = points[:, :, None, j] - points[:, None, :, j]
                d2 += t * t
        answered = ~np.isinf(d2).any(axis=(1, 2))
        # A held-out row is no neighbour of itself. The stable sort reads
        # the others by distance, equal distances in canonical order, as
        # predict's does on the fitted points.
        d2[:, range(m), range(m)] = np.inf
        nearest = np.argsort(d2, axis=2, kind="stable")[..., :k]
        ones = np.take_along_axis(labels[:, None], nearest, axis=2).sum(axis=2)
        return ((2 * ones > k) != labels).sum(axis=1), answered


def knn_learner(k: int) -> Learner:
    """k-nearest-neighbour majority vote (Euclidean distance).

    Distance ties go to the smaller index after canonically sorting the
    learning set; a tied vote predicts 0. k is capped at the learning-set
    size. predict and predict_batch compute the same squared distances: each
    difference squared as t * t, the squares added left to right. Both raise
    ValueError for a query whose width differs from the learning set's.
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


class _CentroidLearner(Learner):
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
        # One subset at a time, with fit's exact fsum means.
        import numpy as np

        pairs = list(zip(map(tuple, x.tolist()), y.tolist()))
        counts = np.zeros(len(subsets), dtype=np.int64)
        answered = np.ones(len(subsets), dtype=bool)
        for b, subset in enumerate(subsets.tolist()):
            try:
                counts[b] = self._pair_errors([pairs[i] for i in subset])
            except OverflowError:
                answered[b] = False
        return counts, answered

    def _pair_errors(self, pairs):
        """Number of the rows in pairs, (x, y) tuples, misclassified by the fit on the others.

        loo_errors_batch's count for one subset of at least two rows: one
        pass over the multiset, without fitting, gives the count that m fits
        and predicts give, and raises OverflowError wherever one of them does.
        """
        by_label: dict[int, list[tuple]] = {0: [], 1: []}
        for x, y in pairs:
            by_label[y].append(x)
        if not by_label[0] or not by_label[1]:
            # Every fit sees one class and predicts it, which is right.
            return 0
        columns = {label: [sorted(col) for col in zip(*xs)] for label, xs in by_label.items()}
        # A class's whole mean, computed only once a fit needs it: a sum that
        # overflows must raise only where some fit sums the same values.
        whole: dict[int, tuple] = {}
        errors = 0
        previous = None
        for row in sorted(pairs):
            # An equal row has the same learning multiset, so the same outcome.
            if row != previous:
                previous = x, y = row
                if len(by_label[y]) == 1:
                    # The fit sees only the other class and predicts it.
                    wrong = True
                else:
                    other = 1 - y
                    if other not in whole:
                        whole[other] = tuple(map(_column_mean, columns[other]))
                    own = tuple(map(_column_mean, map(_without, columns[y], x)))
                    means = (own, whole[1]) if y == 0 else (whole[0], own)
                    # predict of the fitted 1-NN rule over (mean 0, mean 1):
                    # the nearer mean's label, an exact tie going to 0.
                    d0, d1 = _squared_distances(x, means)
                    _check_finite(max(d0, d1))
                    wrong = (1 if d1 < d0 else 0) != y
            errors += wrong
        return errors


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

        labels = y[subsets]
        count, m = subsets.shape
        size = m - 1
        # ones[b, i]: label-1 rows that row i's held-out fit learns on.
        ones = labels.sum(axis=1, keepdims=True) - labels
        majority = 2 * ones > size
        d = x.shape[1]
        if m == 2 or not d:
            # One learning row, or no feature: no split exists, so every fit
            # predicts the majority of its rows.
            return (majority != labels).sum(axis=1), np.ones(count, dtype=bool)
        points = x[subsets]
        columns = points.transpose(0, 2, 1)
        # Each subset's columns sorted once; held-out row i's learning column
        # is its sorted column without row i: shape (count, m, d, size).
        order = np.argsort(columns, axis=2, kind="stable")
        keep = order[:, None] != np.arange(m)[:, None, None]
        rows = np.arange(count)[:, None, None]
        shape, learning = keep.shape, (count, m, d, size)
        values = np.broadcast_to(columns[rows, np.arange(d)[:, None], order][:, None], shape)
        values = values[keep].reshape(learning)
        sorted_labels = np.broadcast_to(labels[rows, order][:, None], shape)
        sorted_labels = sorted_labels[keep].reshape(learning)
        # _best_stump's candidates: the rows x <= threshold are the first
        # n_le of the learning column, wherever the midpoint lies in [lo, hi).
        lo, hi = values[..., :-1], values[..., 1:]
        with np.errstate(over="ignore"):
            threshold = (lo + hi) / 2.0
        split = lo != hi
        answered = ~(split & ((threshold < lo) | (threshold >= hi))).any(axis=(1, 2, 3))
        n_le = np.arange(1, size)
        ones_le = np.cumsum(sorted_labels[..., :-1], axis=3)
        ones_gt = ones[:, :, None, None] - ones_le
        errors = np.minimum(ones_le, n_le - ones_le) + np.minimum(ones_gt, size - n_le - ones_gt)
        errors = np.where(split, errors, m).reshape(count, m, -1)
        # Each candidate's prediction for its held-out row; the first with
        # the fewest errors, in (feature, threshold) order, is the fit.
        guess = np.where(
            points[..., None] <= threshold, 2 * ones_le > n_le, 2 * ones_gt > size - n_le
        )
        best = errors.argmin(axis=2)[..., None]
        chosen = np.take_along_axis(guess.reshape(count, m, -1), best, axis=2)[..., 0]
        predicted = np.where(errors.min(axis=2) < m, chosen, majority)
        return (predicted != labels).sum(axis=1), answered


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
