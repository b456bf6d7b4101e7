"""KernelEvaluator: the comparison kernels on one dataset, by row index, memoized.

phi trains both algorithms on g rows and scores the difference of their
misclassifications on one held-out row, an integer in {-1, 0, 1}. phi0, the
symmetrized kernel, averages phi over the g + 1 rotations of a size-(g+1)
subset through the test position, so it ignores the order of the subset.
product multiplies phi0 on two windows that share exactly c positions; its
means are the second-moment quantities behind the variance estimate. Equal
row multisets share one memo entry. The evaluator is itself a dict, the phi0
memo, and phi0 is its lookup: a repeated request is answered in C, and only
a request that is not a stored key runs Python. The scalar references on
observations, which the evaluator is checked against, live in ucompare.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dataset import Dataset
from .learners import Learner, misclassification_loss

# Entries a memo holds before it is emptied. Every reuse the benchmark
# workloads and the tests show fits in under 2,000 keys (sampled-duplicates:
# at most 1,716 phi0 keys and 787 learning multisets; complete-enum: 680 and
# 136). Complete mode keys exactly the C(n, m) subsets when no two rows are
# equal, and fewer otherwise. A complete run that finishes within about 5
# minutes (n = 22, g = 4) needs at most C(22, 5) = 26,334 phi0 entries; the
# cheapest complete run with more entries that passes the enumeration budget
# (n = 20, g = 5) makes about 3 * 10^9 phi0 lookups, about 10 minutes at the
# rate of the benchmark's complete-enum workload on a 2-core Xeon host (about
# 5.0 million lookups per second). The repeated-id memo of phi0 holds at most
# as many entries again.
MEMO_SIZE = 2**15


class SampleTooSmallError(ValueError):
    """The sample cannot support the requested statistic's degree."""


@dataclass(frozen=True)
class ComparisonKernel:
    """The two algorithms under comparison and the split size g."""

    learner_a: Learner
    learner_b: Learner
    g: int = 1

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g!r}")

    @property
    def m(self) -> int:
        """Subset size for the symmetrized kernel: g + 1."""
        return self.g + 1


def _remember(memo: dict, key, value):
    """Store value under a new key, first emptying the memo if it is full."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _predict_rows(predictor, xs: list) -> list:
    """Labels of the rows xs; a predictor without predict_batch predicts row by row."""
    predict_batch = getattr(predictor, "predict_batch", None)
    if predict_batch is None:
        return [predictor.predict(x) for x in xs]
    return predict_batch(xs)


class KernelEvaluator(dict):
    """Kernel evaluation against one dataset, with bounded memoization.

    Every row gets a class id: the first 1-based index of a row with the same
    (x, y). A multiset of rows is keyed by the sorted tuple of its class ids,
    so value-equal subsets share one entry: determinism guarantees that equal
    multisets give predictors with identical outputs. There are three memos.
    The evaluator is itself a dict, the phi0 memo: it maps the key of a
    subset of m distinct class ids to its symmetrized value. The
    `_phi0s_repeated` dict does the same for a key with a repeated class id,
    and `_learned` maps a learning multiset's key to the list [predictor a,
    predictor b, complement total], where the total stays None until
    phi_complement_total computes it.

    phi0 is the dict lookup itself, so a request equal to a stored key is
    answered in C. Such a request is valid and is its own key: the row a
    class id names has that id as its own, so an ascending tuple of m
    distinct class representatives is its own key. Every other request
    (a first request, an unordered tuple, a non-representative row) goes to
    __missing__, which builds the key and runs the full checks. Requests are
    tuples; a list is unhashable and raises TypeError. Complete mode
    requests exactly the C(n, m) subsets, each as an ascending tuple; when no
    two rows are equal, each is its own key and every repeat is answered in C.

    Each memo holds at most MEMO_SIZE entries and is emptied when an insert
    finds it full, so a run at any budget keeps bounded memory. Attributes
    live in slots, which a dict subclass reads faster than an instance dict;
    the `__dict__` slot still lets a caller wrap a method on one instance.
    Evaluation is single-threaded.
    """

    __slots__ = (
        "kernel",
        "data",
        "_m",
        "_class_of",
        "_rows",
        "_phi0s_repeated",
        "_learned",
        "__dict__",
        "__weakref__",
    )

    def __init__(self, kernel: ComparisonKernel, data: Dataset):
        if kernel.m > data.n:
            raise SampleTooSmallError(
                f"subset size g + 1 = {kernel.m} exceeds the sample size {data.n}"
            )
        self.kernel = kernel
        self.data = data
        self._m = kernel.m
        first_row: dict[tuple, int] = {}
        # A dict's lookup, not a list's: a negative index must fail, not wrap
        # around. Bound once, because every kernel request calls it.
        self._class_of = {
            i: first_row.setdefault((obs.x, obs.y), i)
            for i, obs in enumerate(data.observations, start=1)
        }.__getitem__
        # Rows by 1-based index, read only after a key has validated the indices.
        self._rows = (None, *data.observations)
        self._phi0s_repeated: dict[tuple, float] = {}
        self._learned: dict[tuple, list] = {}

    # Symmetrized kernel over a subset (a tuple of m distinct row indices),
    # memoized by its class-id key; see the class docstring and __missing__.
    phi0 = dict.__getitem__

    def __missing__(self, request: tuple[int, ...]) -> float:
        """phi0 of a request that is not a stored key.

        Builds the request's class-id key (IndexError outside 1..n) and checks
        that the request names m distinct rows. A key of m distinct class ids
        is kept in the evaluator, a key with a repeated class id in
        `_phi0s_repeated`. A key with repeated class ids, such as (1, 1, 2),
        is never a key of the evaluator, so the lookup cannot answer the
        invalid request (1, 1, 2).
        """
        m = self._m
        try:
            key = tuple(sorted(map(self._class_of, request)))
        except KeyError as exc:
            raise IndexError(f"index {exc.args[0]!r} outside 1..{self.data.n}") from None
        if len(key) != m or len(set(request)) != m:
            raise ValueError(f"need {m} distinct indices, got {tuple(request)}")
        memo = self if len(set(key)) == m else self._phi0s_repeated
        result = memo.get(key)
        if result is None:
            members = sorted(request)
            values = [
                self.phi(tuple(members[:i] + members[i + 1 :]), members[i])
                for i in range(m)
            ]
            result = _remember(memo, key, sum(values) / m)
        return result

    def _key(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Sorted class ids of the rows at indices; IndexError outside 1..n."""
        try:
            return tuple(sorted(map(self._class_of, indices)))
        except KeyError as exc:
            raise IndexError(f"index {exc.args[0]!r} outside 1..{self.data.n}") from None

    def _learned_entry(self, learn_indices: Sequence[int]) -> list:
        """The `_learned` entry of the rows at learn_indices, fitting both learners on a miss."""
        key = self._key(learn_indices)
        entry = self._learned.get(key)
        if entry is None:
            learn_obs = tuple(map(self._rows.__getitem__, learn_indices))
            entry = _remember(
                self._learned,
                key,
                [self.kernel.learner_a.fit(learn_obs), self.kernel.learner_b.fit(learn_obs), None],
            )
        return entry

    def _check_learning(self, learn_indices: Sequence[int]) -> None:
        g = self.kernel.g
        if len(learn_indices) != g:
            raise ValueError(f"expected {g} learning indices, got {len(learn_indices)}")
        if len(set(learn_indices)) != g:
            raise ValueError(f"learning indices must be distinct, got {tuple(learn_indices)}")

    def phi(self, learn_indices: Sequence[int], test_index: int) -> int:
        self._check_learning(learn_indices)
        if test_index in learn_indices:
            raise ValueError(f"test index {test_index} also appears in the learning part")
        obs = self.data.observation(test_index)
        pred_a, pred_b, _ = self._learned_entry(learn_indices)
        return misclassification_loss(pred_a.predict(obs.x), obs.y) - misclassification_loss(
            pred_b.predict(obs.x), obs.y
        )

    def phi_complement_total(self, learn_indices: Sequence[int]) -> int:
        """Sum of phi over every row outside learn_indices, fitting once.

        The learning indices are distinct and rows with equal (x, y) have
        equal values, so the total depends only on the learning multiset and
        takes one predict_batch call per predictor and multiset, on every
        row's `Observation.x`, the tuple phi passes to predict.
        """
        self._check_learning(learn_indices)
        entry = self._learned_entry(learn_indices)
        if entry[2] is None:
            pred_a, pred_b, _ = entry
            xs = [obs.x for obs in self.data.observations]
            out_a = _predict_rows(pred_a, xs)
            out_b = _predict_rows(pred_b, xs)
            rows = [
                misclassification_loss(a, obs.y) - misclassification_loss(b, obs.y)
                for a, b, obs in zip(out_a, out_b, self.data.observations)
            ]
            entry[2] = sum(rows) - sum(rows[i - 1] for i in learn_indices)
        return entry[2]

    def product(self, indices: Sequence[int], overlap: int) -> float:
        """Product of symmetrized values on the two standard windows.

        indices is a tuple of length 2m - overlap; the windows are the first
        m and the last m positions, sharing exactly `overlap` middle positions.
        """
        m = self._m
        if not 0 <= overlap <= m:
            raise ValueError(f"overlap must lie in 0..{m}, got {overlap}")
        if len(indices) != 2 * m - overlap:
            raise ValueError(
                f"expected {2 * m - overlap} indices for overlap {overlap}, got {len(indices)}"
            )
        if len(set(indices)) != len(indices):
            raise ValueError(f"indices must be distinct, got {tuple(indices)}")
        first = self.phi0(indices[:m])
        if overlap == m:
            return first * first
        return first * self.phi0(indices[m - overlap :])
