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
from itertools import accumulate
from typing import Sequence

import numpy as np

from .dataset import Observation


def misclassification_loss(predicted: int, actual: int) -> int:
    """0-1 loss: 1 when the labels differ, else 0."""
    if predicted not in (0, 1):
        raise ValueError(f"predicted label must be 0 or 1, got {predicted!r}")
    if actual not in (0, 1):
        raise ValueError(f"actual label must be 0 or 1, got {actual!r}")
    return 1 if predicted != actual else 0


def _canonical(learning_set: Sequence[Observation]) -> list[Observation]:
    """Learning set in canonical order: feature lexicographic, then label."""
    if not learning_set:
        raise ValueError("cannot fit on an empty learning set")
    return sorted(learning_set, key=lambda obs: (obs.x, obs.y))


def _squared_distance(x: Sequence[float], p: Sequence[float]) -> float:
    """Sum of squared coordinate differences, each squared as d * d.

    d * d is correctly rounded, as numpy's ** 2 on the batch paths is; a
    Python float's d ** 2 goes through libm pow, which can land one unit in
    the last place away and so flip a near-tie between the two paths.
    """
    return sum(d * d for d in map(operator.sub, x, p))


def _check_finite(largest_squared_distance: float) -> None:
    """Raise OverflowError when the largest squared distance is inf.

    Distances past the float limit cannot be ranked. This covers a difference
    that overflowed to inf, a square that overflowed and a sum of squares
    that overflowed.
    """
    if largest_squared_distance == math.inf:
        raise OverflowError("squared distance exceeds the float range")


class Predictor:
    """Fitted model mapping a feature vector to a label in {0, 1}."""

    def predict(self, x: Sequence[float]) -> int:
        raise NotImplementedError

    def predict_batch(self, xs: Sequence[Sequence[float]]) -> list[int]:
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

    def predict_batch(self, xs):
        return [self.label] * len(xs)


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
    def __init__(self, points: list[tuple[float, ...]], labels: list[int], k: int):
        self.points = points
        self.labels = labels
        self.k = k

    def predict(self, x):
        x = tuple(x)
        d2 = [_squared_distance(x, p) for p in self.points]
        # Stable sort: equal distances resolve to the smaller canonical index.
        order = sorted(range(len(d2)), key=d2.__getitem__)
        _check_finite(d2[order[-1]])
        votes = sum(self.labels[i] for i in order[: self.k])
        return 1 if 2 * votes > self.k else 0

    def predict_batch(self, xs):
        q = np.asarray(xs, dtype=float)
        points = np.array(self.points, dtype=float)
        with np.errstate(over="ignore"):
            d2 = ((q[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        _check_finite(d2.max())
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes = np.asarray(self.labels)[order].sum(axis=1)
        return [1 if 2 * v > self.k else 0 for v in votes]


class _KnnLearner(Learner):
    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        self.k = k

    def fit(self, learning_set):
        ordered = _canonical(learning_set)
        points = [obs.x for obs in ordered]
        labels = [obs.y for obs in ordered]
        return _KnnPredictor(points, labels, min(self.k, len(ordered)))


def knn_learner(k: int) -> Learner:
    """k-nearest-neighbour majority vote (Euclidean distance).

    Distance ties go to the smaller index after canonically sorting the
    learning set; a tied vote predicts 0. k is capped at the learning-set
    size.
    """
    return _KnnLearner(k)


class _CentroidPredictor(Predictor):
    def __init__(self, centroid0: tuple[float, ...], centroid1: tuple[float, ...]):
        self.centroid0 = centroid0
        self.centroid1 = centroid1

    def predict(self, x):
        x = tuple(x)
        d0 = _squared_distance(x, self.centroid0)
        d1 = _squared_distance(x, self.centroid1)
        _check_finite(max(d0, d1))
        return 1 if d1 < d0 else 0

    def predict_batch(self, xs):
        q = np.asarray(xs, dtype=float)
        with np.errstate(over="ignore"):
            d0 = ((q - np.array(self.centroid0)) ** 2).sum(axis=1)
            d1 = ((q - np.array(self.centroid1)) ** 2).sum(axis=1)
        _check_finite(max(d0.max(), d1.max()))
        return [1 if b < a else 0 for a, b in zip(d0, d1)]


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
        centroid0, centroid1 = (
            tuple(math.fsum(col) / len(rows) for col in zip(*rows)) for rows in by_label.values()
        )
        return _CentroidPredictor(centroid0, centroid1)


def centroid_learner() -> Learner:
    """Nearest-class-centroid rule.

    Predicts the label of the closer class mean; a single-class learning set
    yields that class everywhere, and an exact distance tie predicts 0.
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


def _majority(ones: int, size: int) -> int:
    """Majority label of size labels of which ones are 1; a tie gives 0."""
    return 1 if 2 * ones > size else 0


class _StumpLearner(Learner):
    def fit(self, learning_set):
        if not learning_set:
            raise ValueError("cannot fit on an empty learning set")
        size = len(learning_set)
        total_ones = sum(obs.y for obs in learning_set)
        # Candidates arrive in nondecreasing (feature, threshold) order, since
        # midpoints of increasing pairs never decrease. Keeping the first one
        # with the fewest errors is therefore the (errors, feature, threshold)
        # order; an equal (feature, threshold) makes the same split.
        best = None  # (errors, feature, threshold, rows left, ones left)
        for j in range(len(learning_set[0].x)):
            pairs = sorted([(obs.x[j], obs.y) for obs in learning_set])
            values = [v for v, _ in pairs]
            ones_before = list(accumulate((y for _, y in pairs), initial=0))
            for k in range(1, size):
                lo, hi = values[k - 1], values[k]
                if lo == hi:
                    continue
                threshold = (lo + hi) / 2.0
                # Not always k: the midpoint may round up to hi or overflow.
                n_le = bisect_right(values, threshold)
                ones_le = ones_before[n_le]
                ones_gt = total_ones - ones_le
                # Each side predicts its majority, so it misclassifies its
                # minority.
                errors = min(ones_le, n_le - ones_le) + min(ones_gt, size - n_le - ones_gt)
                if best is None or errors < best[0]:
                    best = (errors, j, threshold, n_le, ones_le)
        if best is None:
            # Every feature is constant on the learning set; no split exists.
            return _ConstantPredictor(_majority(total_ones, size))
        _, j, threshold, n_le, ones_le = best
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
    stump degenerates to the overall majority label. One sort and one prefix
    count of labels per feature make a fit O(d g log g) for g rows and d
    features.
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
