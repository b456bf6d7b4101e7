"""Deterministic, permutation-symmetric learning algorithms and their 0-1 error.

Every learner here is a pure function of the multiset of learning
observations: refitting the same multiset gives a predictor with identical
outputs, and reordering the learning set changes nothing. That symmetry is
what licenses averaging the comparison kernel over unordered subsets, so all
tie-breaking below is explicit rather than incidental.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from typing import Sequence

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


class Predictor:
    """Fitted model mapping a feature vector to a label in {0, 1}."""

    def predict(self, x: Sequence[float]) -> int:
        raise NotImplementedError

    def predict_batch(self, xs: Sequence[Sequence[float]]) -> list[int]:
        """Labels of the rows xs, each the tuple `Observation.x` that predict receives."""
        return [self.predict(x) for x in xs]


class Learner:
    """Factory for predictors; fit must be deterministic and symmetric."""

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
        # Each difference is squared as t * t, which is correctly rounded as
        # numpy's ** 2 on the batch path is (a float's t ** 2 goes through
        # libm pow), and the squares are added left to right, as the batch
        # path adds its columns. sum() would not do: from Python 3.12 it adds
        # floats with compensation.
        d2 = []
        for p in self.points:
            s = 0.0
            for t in map(operator.sub, x, p):
                s = s + t * t
            d2.append(s)
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


def knn_learner(k: int) -> Learner:
    """k-nearest-neighbour majority vote (Euclidean distance).

    Distance ties go to the smaller index after canonically sorting the
    learning set; a tied vote predicts 0. k is capped at the learning-set
    size. predict and predict_batch compute the same squared distances: each
    difference squared as t * t, the squares added left to right. Both raise
    ValueError for a query whose width differs from the learning set's.
    """
    return _KnnLearner(k)


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
        # fsum per coordinate is exactly rounded, so the mean does not
        # depend on the order of the rows.
        means = tuple(
            tuple(math.fsum(col) / len(rows) for col in zip(*rows)) for rows in by_label.values()
        )
        return _KnnPredictor(means, _CENTROID_LABELS, 1)


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


class _StumpLearner(Learner):
    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        size = len(learning_set)
        labels = [obs.y for obs in learning_set]
        total_ones = sum(labels)
        # Candidates arrive in nondecreasing (feature, threshold) order, since
        # midpoints of increasing pairs never decrease. Keeping the first one
        # with the fewest errors is therefore the (errors, feature, threshold)
        # order; an equal (feature, threshold) makes the same split. No later
        # candidate beats zero errors, so the scan stops at the first.
        best = None  # (feature, threshold, rows left, ones left)
        best_errors = size + 1
        for j, column in enumerate(zip(*[obs.x for obs in learning_set])):
            pairs = sorted(zip(column, labels))
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
