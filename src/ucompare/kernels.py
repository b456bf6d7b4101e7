"""KernelEvaluator: the comparison kernels on one dataset, by row index, memoized.

phi trains both algorithms on g rows and scores the difference of their
misclassifications on one held-out row, an integer in {-1, 0, 1}. phi0, the
symmetrized kernel, averages phi over the g + 1 rotations of a size-(g+1)
subset through the test position, so it ignores the order of the subset.
That sum is learner a's leave-one-out (LOO) error count on the subset minus
learner b's. product multiplies phi0 on the two windows of one draw, or
squares it on one window; its means are the second-moment quantities behind
the variance estimate. Equal row multisets share one memo entry, under a key
that is itself a valid request. The evaluator is itself a dict, the phi0
memo, and phi0 is its lookup: a request equal to a key is answered in C, and
any other request runs Python, which sums phi over the key's rotations.
phi0_keys turns arrays of windows into keys in bulk, tuples of Python ints,
so the sampled estimators request keys and a repeated multiset costs one
lookup; a product statistic keys both windows of a chunk of draws in one
call. When both learners have loo_errors_batch, phi0_keys also pre-fills the
memo: it counts the LOO errors of the call's distinct new keys in numpy
batches, so the requests that follow are answered in C. learning_keys does
the same for the sampled point estimate's learning sets:
phi_complement_total, the sum of phi over every row outside a learning set,
is read from a second memo, which holdout_errors_batch pre-fills when both
learners have it. The scalar references on observations, which the
evaluator is checked against, live in ucompare.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import TYPE_CHECKING, Sequence

from .dataset import Dataset
from .learners import Learner, misclassification_loss

if TYPE_CHECKING:
    import numpy as np

# Entries a memo holds before it is emptied. Every reuse the benchmark
# workloads and the tests show fits in under 2,000 keys (seed 0,
# sampled-duplicates: 1,611 phi0 keys and 701 learning sets; complete-enum:
# 680 phi0 keys and 136 fitted learning multisets); the largest memo, 3,900
# phi0 keys on sampled-small-g, is of keys that almost never repeat.
# Complete mode stores at most the C(n, m) subsets: each key,
# and each request that is not its own key. A complete run that finishes
# within about 5 minutes (n = 22, g = 4) needs at most C(22, 5) = 26,334
# phi0 entries; the cheapest complete run with more entries that passes the
# enumeration budget (n = 20, g = 5) makes about 3 * 10^9 phi0 lookups,
# about 10 minutes at the rate of the benchmark's complete-enum workload on
# a 2-core Xeon host (about 5.0 million lookups per second).
MEMO_SIZE = 2**15

# Keys per batch call are capped so that keys times the array elements per
# key that the caller states stays under this: m * m * d from phi0_keys, the
# stump's leave-one-out columns, about 300 keys at m = 6, d = 3; n * g from
# learning_keys, kNN's hold-out distances, 109 keys at n = 60, g = 5 and 8 at
# n = 200, g = 20. It bounds the memory a call takes, and loo_errors_batch
# calls of 1,024 keys at m = 6, d = 3 took 30-40% longer per key than calls
# of 300.
_BATCH_ELEMENTS = 2**15


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


def _both(kernel: ComparisonKernel, method: str):
    """The pair (learner a's method, learner b's), or None when either lacks it."""
    method_a = getattr(kernel.learner_a, method, None)
    method_b = getattr(kernel.learner_b, method, None)
    return None if method_a is None or method_b is None else (method_a, method_b)


class KernelEvaluator(dict):
    """Kernel evaluation against one dataset, with bounded memoization.

    Rows with the same (x, y) form a class, whose id is its first 1-based
    row. Determinism guarantees that equal multisets of rows give predictors
    with identical outputs, so results are memoized per multiset, in three
    memos under one key, which _key builds. A multiset in which class k
    appears r times has as key the first r rows of class k, in index order,
    for every class in it, the whole tuple sorted ascending. So a key names
    distinct rows in 1..n, equal multisets get equal keys, and a key is a
    valid request that is its own key; when no two rows are equal, the key
    of a request is the sorted request. The evaluator is itself a dict, the
    phi0 memo: it maps the key of a size-m multiset to its symmetrized
    value. `_totals` maps the key of a size-g learning multiset to its
    complement total, an int, and `_learned` maps it to the pair
    (predictor a, predictor b), both fitted on the key's rows. phi and
    phi_complement_total score rows through one path, _scores: it fits
    through `_learned`, so requests that share a learning multiset share its
    fit, and calls only each predictor's predict, one row at a time. A
    key's multiset is evaluated as the sum of phi over its m rotations,
    divided once by m. When both learners have loo_errors_batch, phi0_keys
    evaluates the new keys of each call in batches before returning them
    (see _prefill), as the difference of their leave-one-out counts divided
    by m: the same integer divided by m, so the same float. When both
    learners have holdout_errors_batch, learning_keys does the same for
    `_totals`, from which rows each learner, fitted on the key's rows,
    misclassifies: the same integer phi_complement_total's fit and predict
    give.

    phi0 is the dict lookup itself, so a request equal to a stored key is
    answered in C. Every other request (a first request, an unordered
    tuple, a row that is not among its class's first rows) goes to
    __missing__, which checks it, builds its key and evaluates the key's
    multiset unless the memo holds it; a valid request that is not its
    own key is then stored under itself as well. An invalid request such
    as (1, 1, 2) is never stored, so the lookup cannot answer it. Requests
    are tuples; a list is unhashable and raises TypeError. Complete mode
    requests exactly the C(n, m) subsets, each as an ascending tuple, so
    each enters __missing__ once and every repeat is answered in C. The
    sampled estimators turn their windows into keys with phi0_keys, one
    call per chunk of draws for both windows, so there every repeated
    multiset is answered in C.

    Two plain int counters record the work done: phi0_evaluations counts
    the symmetrized values computed and pair_fits the fits of the learner
    pair, one per learning multiset that `_learned` did not hold. A key a
    batch answers fits nothing.

    Each memo holds at most MEMO_SIZE entries and is emptied when an insert
    finds it full, so a run at any budget keeps bounded memory. Evaluation
    is single-threaded.
    """

    def __init__(self, kernel: ComparisonKernel, data: Dataset):
        if kernel.m > data.n:
            raise SampleTooSmallError(
                f"subset size g + 1 = {kernel.m} exceeds the sample size {data.n}"
            )
        self.kernel = kernel
        self.data = data
        self.phi0_evaluations = 0
        self.pair_fits = 0
        self._m = kernel.m
        classes: dict[tuple, list[int]] = {}
        for i, obs in enumerate(data.observations, start=1):
            classes.setdefault((obs.x, obs.y), []).append(i)
        # Each class's rows in index order, by class id.
        self._members = {rows[0]: tuple(rows) for rows in classes.values()}
        # A dict's lookup, not a list's: a negative index must fail, not wrap
        # around. Bound once, because every kernel request calls it.
        self._class_of = {i: k for k, rows in self._members.items() for i in rows}.__getitem__
        # Rows by 1-based index, read only after a key has validated the indices.
        self._rows = (None, *data.observations)
        self._learned: dict[tuple, tuple] = {}
        self._totals: dict[tuple, int] = {}
        # The numpy tables of phi0_keys and learning_keys, built on the
        # first call of either.
        self._key_tables = None
        # Both learners' batches, or None when either lacks them. Bound
        # methods of the learners, not of the evaluator, so the evaluator
        # holds no reference back to itself.
        self._batch = _both(kernel, "loo_errors_batch")
        self._holdout = _both(kernel, "holdout_errors_batch")

    # Symmetrized kernel over a subset (a tuple of m distinct row indices),
    # memoized by its key; see the class docstring and __missing__.
    phi0 = dict.__getitem__

    def __missing__(self, request: tuple[int, ...]) -> float:
        """phi0 of a request that is not a stored key.

        Checks that the request names m distinct rows in 1..n (IndexError
        outside that range, ValueError otherwise), builds its key, and
        evaluates the key's multiset unless the memo holds the key. A valid
        request that is not its own key is then stored too, so its repeats
        are answered by the lookup.
        """
        m = self._m
        key = self._key(request, m)
        result = self.get(key)
        if result is None:
            # The sum over the m rotations of phi is learner a's LOO error
            # count minus learner b's: one integer, divided once by m.
            total = sum([self.phi(key[:i] + key[i + 1 :], key[i]) for i in range(m)])
            self.phi0_evaluations += 1
            result = _remember(self, key, total / m)
        if request != key:
            _remember(self, request, result)
        return result

    def _key(self, indices: Sequence[int], width: int) -> tuple[int, ...]:
        """The memo key of the multiset of rows at indices.

        IndexError for an index outside 1..n, ValueError unless indices
        names width distinct rows.
        """
        try:
            ids = sorted(map(self._class_of, indices))
        except KeyError as exc:
            raise IndexError(f"index {exc.args[0]!r} outside 1..{self.data.n}") from None
        if len(ids) != width or len(set(indices)) != width:
            raise ValueError(f"need {width} distinct indices, got {tuple(indices)}")
        if len(set(ids)) == width:
            return tuple(ids)
        # A class that appears r times stands for its first r rows: the id
        # k at sorted position j takes row j - ids.index(k) of class k.
        members = self._members
        return tuple(sorted([members[k][j - ids.index(k)] for j, k in enumerate(ids)]))

    def phi0_keys(self, windows: np.ndarray) -> list[tuple[int, ...]]:
        """The phi0 keys of the rows of windows, an integer array of shape (count, m).

        Each key equals the one __missing__ builds for that row as a request,
        after the same checks: IndexError for an index outside 1..n and
        ValueError for a window that repeats an index. The first call imports
        numpy and builds the lookup tables. When both learners have
        loo_errors_batch, the keys the memo lacks are evaluated before the
        keys are returned.
        """
        keys = self._keys(windows, self._m)
        if self._batch is not None:
            d = max(self._key_tables[3].shape[1], 1)
            self._prefill(self, keys, self._m * self._m * d, self._loo_values)
        return keys

    def learning_keys(self, draws: np.ndarray) -> list[tuple[int, ...]]:
        """The keys of the learning sets in the rows of draws, an integer array of shape (count, g).

        A key names the multiset of its draw's rows as a phi0 key does, with
        the same checks, and is a valid request of phi_complement_total,
        which answers it from `_totals`. When both learners have
        holdout_errors_batch, the keys that memo lacks are evaluated before
        the keys are returned.
        """
        g = self.kernel.g
        keys = self._keys(draws, g)
        if self._holdout is not None:
            self._prefill(self._totals, keys, self.data.n * g, self._holdout_totals)
        return keys

    def _keys(self, windows: np.ndarray, width: int) -> list[tuple[int, ...]]:
        """The memo keys of the rows of windows, an integer array of shape (count, width)."""
        import numpy as np

        n = self.data.n
        if windows.ndim != 2 or windows.shape[1] != width:
            raise ValueError(f"need windows of {width} indices, got shape {windows.shape}")
        if windows.size and not (windows.min() >= 1 and windows.max() <= n):
            raise IndexError(f"window index outside 1..{n}")
        if self._key_tables is None:
            # by_class lists every class's rows in index order, class after
            # class, the classes in canonical (x, y) order; place[i] is where
            # row i sits in it, and class_start[p] where the class of the
            # row at p starts; these three are int32, half the bytes of
            # int64 in every gather and sort of a chunk's windows. x and y
            # hold the rows in by_class's order, for the learners' batches.
            members, rows = self._members, self._rows
            ids = sorted(members, key=lambda k: (rows[k].x, rows[k].y))
            by_class = np.array([i for k in ids for i in members[k]], dtype=np.int32)
            place = np.empty(n + 1, dtype=np.int32)
            place[by_class] = np.arange(n)
            class_start = place[[k for k in ids for _ in members[k]]]
            x = np.array([rows[i].x for i in by_class], dtype=float)
            y = np.array([rows[i].y for i in by_class])
            self._key_tables = by_class, place, class_start, x, y
        by_class, place, class_start, _, _ = self._key_tables
        # Sorted places group each window's rows by class; a repeated index
        # shows as two equal neighbours.
        ordered = np.sort(place[windows], axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError(f"need {width} distinct indices in every window")
        # The j-th member of a class in a window (from 0) becomes the class's
        # j-th row. Along the run of a class that starts at column f, the
        # running maximum of (class start - column) is class start - f,
        # since every earlier class ends before this one starts; adding the
        # column back gives class start + (column - f).
        columns = np.arange(width, dtype=np.int32)
        canonical = np.maximum.accumulate(class_start[ordered] - columns, axis=1) + columns
        # Tuples zipped from the columns' lists: no list per row is built.
        return list(zip(*np.sort(by_class[canonical], axis=1).T.tolist()))

    def _prefill(self, memo: dict, keys: list[tuple[int, ...]], per_key: int, evaluate) -> None:
        """Store in memo the values of the distinct keys it lacks, in batches.

        evaluate takes a (B, k) array of the keys' places in the key tables,
        ascending, so each lists its rows in canonical order, and returns
        the arrays (values, answered). A batch holds at most
        _BATCH_ELEMENTS // per_key keys, per_key being the array elements
        the caller states one key takes. Every key evaluate does not answer
        is left to the memo's own miss path, so a key that raises raises
        when it is requested, as it would without the batch. If the new keys
        would not fit in the memo, it is emptied first and every distinct
        key of the call goes to the batch.
        """
        import numpy as np

        missing = list(dict.fromkeys(filterfalse(memo.__contains__, keys)))
        if not missing:
            return
        if len(memo) + len(missing) > MEMO_SIZE:
            # The call's keys that the memo held go with it, so they join
            # the batch instead of each being refitted when requested.
            memo.clear()
            missing = list(dict.fromkeys(keys))
        subsets = np.sort(self._key_tables[1][np.array(missing)], axis=1)
        step = max(1, _BATCH_ELEMENTS // per_key)
        for start in range(0, len(missing), step):
            values, answered = evaluate(subsets[start : start + step])
            for key, value, ok in zip(
                missing[start : start + step], values.tolist(), answered.tolist()
            ):
                if ok:
                    _remember(memo, key, value)

    def _loo_values(self, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi0 of subsets: learner a's leave-one-out count minus b's, divided by m."""
        _, _, _, x, y = self._key_tables
        batch_a, batch_b = self._batch
        errors_a, answered_a = batch_a(x, y, subsets)
        errors_b, answered_b = batch_b(x, y, subsets)
        answered = answered_a & answered_b
        self.phi0_evaluations += int(answered.sum())
        return (errors_a - errors_b) / self._m, answered

    def _holdout_totals(self, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complement totals of learning subsets: phi summed over every row, minus over the subset's."""
        import numpy as np

        _, _, _, x, y = self._key_tables
        batch_a, batch_b = self._holdout
        wrong_a, answered_a = batch_a(x, y, subsets)
        wrong_b, answered_b = batch_b(x, y, subsets)
        phi = wrong_a.astype(np.int64) - wrong_b
        totals = phi.sum(axis=1) - np.take_along_axis(phi, subsets, axis=1).sum(axis=1)
        return totals, answered_a & answered_b

    def _learning_key(self, learn_indices: Sequence[int]) -> tuple[int, ...]:
        """The memo key of a learning set of g rows; _key checks the indices."""
        g = self.kernel.g
        if len(learn_indices) != g:
            raise ValueError(f"expected {g} learning indices, got {len(learn_indices)}")
        return self._key(learn_indices, g)

    def _scores(self, key: tuple[int, ...], rows: Sequence[int]) -> list[int]:
        """phi at each of rows, with both learners fitted on the rows of key.

        Both learners are fitted on a miss in `_learned`, and each predicts
        every row through predict, on the row's `Observation.x`.
        """
        predictors = self._learned.get(key)
        if predictors is None:
            learning = tuple(map(self._rows.__getitem__, key))
            self.pair_fits += 1
            predictors = _remember(
                self._learned,
                key,
                (self.kernel.learner_a.fit(learning), self.kernel.learner_b.fit(learning)),
            )
        # A loop, not a comprehension: phi scores one row, and on Python
        # 3.11 a comprehension's own frame costs phi about 15%.
        pred_a, pred_b = predictors
        scores = []
        for obs in map(self._rows.__getitem__, rows):
            scores.append(
                misclassification_loss(pred_a.predict(obs.x), obs.y)
                - misclassification_loss(pred_b.predict(obs.x), obs.y)
            )
        return scores

    def phi(self, learn_indices: Sequence[int], test_index: int) -> int:
        key = self._learning_key(learn_indices)
        if test_index in learn_indices:
            raise ValueError(f"test index {test_index} also appears in the learning part")
        self.data.observation(test_index)  # IndexError outside 1..n
        return self._scores(key, (test_index,))[0]

    def phi_complement_total(self, learn_indices: Sequence[int]) -> int:
        """Sum of phi over every row outside learn_indices, an int.

        The learning indices are distinct and rows with equal (x, y) have
        equal values, so the total depends only on the learning multiset and
        is memoized in `_totals` under its key. A request equal to a stored
        key, such as a key from learning_keys, is answered by the lookup.
        Any other request is checked, and unless `_totals` holds its key,
        phi is scored at every row and the key's rows are subtracted. The
        learning rows are scored too, so a request raises wherever a
        prediction would raise, as holdout_errors_batch's answered mask
        assumes.
        """
        try:
            return self._totals[learn_indices]
        except (KeyError, TypeError):
            pass
        key = self._learning_key(learn_indices)
        total = self._totals.get(key)
        if total is None:
            scores = self._scores(key, range(1, self.data.n + 1))
            total = _remember(self._totals, key, sum(scores) - sum(scores[i - 1] for i in key))
        return total

    def product(self, first: tuple[int, ...], second: tuple[int, ...] | None = None) -> float:
        """phi0(first) * phi0(second) on the two windows of one draw.

        At full overlap both windows are the same: second is omitted and the
        result is phi0(first) squared, from one request.
        """
        value = self.phi0(first)
        return value * (value if second is None else self.phi0(second))
