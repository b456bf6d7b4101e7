"""KernelEvaluator: the comparison kernels on one dataset, by row index, memoized.

phi trains both algorithms on g rows and scores the difference of their
misclassifications on one held-out row, an integer in {-1, 0, 1}. phi0, the
symmetrized kernel, averages phi over the g + 1 rotations of a size-(g+1)
subset through the test position, so it ignores the order of the subset.
product multiplies phi0 on two windows that share exactly c positions; its
means are the second-moment quantities behind the variance estimate. Equal
row multisets share one memo entry. The scalar references on observations,
which the evaluator is checked against, live in ucompare.oracle.
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
# equal, and fewer otherwise. A complete run that finishes within about 17
# minutes (n = 22, g = 4) needs at most C(22, 5) = 26,334 phi0 entries; the
# cheapest complete run with more entries that passes the enumeration budget
# (n = 20, g = 5) makes about 3 * 10^9 phi0 lookups, about 37 minutes at the
# rate of the benchmark's complete-enum workload on a 2-core Xeon host (about
# 1.35 million lookups per second).
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


class KernelEvaluator:
    """Kernel evaluation against one dataset, with bounded memoization.

    Every row gets a class id: the first 1-based index of a row with the same
    (x, y). A multiset of rows is keyed by the sorted tuple of its class ids,
    so value-equal subsets share one entry: determinism guarantees that equal
    multisets give predictors with identical outputs. There are two memos:
    `_phi0s` maps a subset's key to its symmetrized value, and `_learned` maps
    a learning multiset's key to the list [predictor a, predictor b, complement
    total], where the total stays None until phi_complement_total computes it.
    The row a class id names has that id as its own, so an ascending request
    of distinct class representatives is its own key: phi0 probes `_phi0s`
    with the request before building a key. Complete mode requests exactly
    the C(n, m) subsets, each as an ascending tuple; when no two rows are
    equal, each is its own key and every repeat is answered by that probe.
    Each holds at most MEMO_SIZE entries and is emptied when an insert finds it
    full, so a run at any budget keeps bounded memory. Evaluation is
    single-threaded.
    """

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
        self._phi0s: dict[tuple, float] = {}
        self._learned: dict[tuple, list] = {}

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
            learn_obs = self.data.subset(learn_indices)
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

    def phi0(self, member_indices: Sequence[int]) -> float:
        """Symmetrized kernel over a subset, memoized by its class-id key.

        The request itself is looked up first. A cached key is a sorted
        tuple of class ids, and the row a class id names has that id as its
        own, so a request equal to a cached key is its own key once its m
        entries are distinct. A key cached with repeated class ids, such as
        (1, 1, 2), therefore never answers the repeated request (1, 1, 2).
        Every other request (a miss, a list, an unordered tuple) builds its
        key and runs the full checks.
        """
        m = self._m
        try:
            result = self._phi0s.get(member_indices)
        except TypeError:  # unhashable, such as a list
            result = None
        if result is not None and len(set(member_indices)) == m:
            return result
        key = self._key(member_indices)
        if len(key) != m or len(set(member_indices)) != m:
            raise ValueError(f"need {m} distinct indices, got {tuple(member_indices)}")
        result = self._phi0s.get(key)
        if result is None:
            members = sorted(member_indices)
            values = [
                self.phi(tuple(members[:i] + members[i + 1 :]), members[i])
                for i in range(m)
            ]
            result = _remember(self._phi0s, key, sum(values) / m)
        return result

    def phi_complement_total(self, learn_indices: Sequence[int]) -> int:
        """Sum of phi over every row outside learn_indices, fitting once.

        The learning indices are distinct and rows with equal (x, y) have
        equal values, so the total depends only on the learning multiset and
        takes one batch prediction pass per multiset.
        """
        self._check_learning(learn_indices)
        entry = self._learned_entry(learn_indices)
        if entry[2] is None:
            pred_a, pred_b, _ = entry
            out_a = pred_a.predict_batch(self.data.feature_matrix)
            out_b = pred_b.predict_batch(self.data.feature_matrix)
            rows = [
                misclassification_loss(a, obs.y) - misclassification_loss(b, obs.y)
                for a, b, obs in zip(out_a, out_b, self.data.observations)
            ]
            entry[2] = sum(rows) - sum(rows[i - 1] for i in learn_indices)
        return entry[2]

    def product(self, indices: Sequence[int], overlap: int) -> float:
        """Product of symmetrized values on the two standard windows.

        indices has length 2m - overlap; the windows are the first m and the
        last m positions, sharing exactly `overlap` middle positions.
        """
        m = self.kernel.m
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
