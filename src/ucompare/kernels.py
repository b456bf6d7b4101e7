"""KernelEvaluator: the comparison kernels on one dataset, by row index, memoized.

phi trains both algorithms on g rows and scores the difference of their
misclassifications on one held-out row, an integer in {-1, 0, 1}. phi0, the
symmetrized kernel, averages phi over the g + 1 rotations of a size-(g+1)
subset through the test position, so it ignores the order of the subset.
That sum is learner a's leave-one-out (LOO) error count on the subset minus
learner b's, so when both learners have loo_errors, phi0 takes one call of
each per subset and fits nothing; otherwise it fits and predicts through
phi. product multiplies phi0 on the two windows of one draw, or squares it
on one window; its means are the second-moment quantities behind the variance
estimate. Equal row multisets share one memo entry, under a key that is
itself a valid request. The evaluator is itself a dict, the phi0 memo, and
phi0 is its lookup: a request equal to a key is answered in C, and any
other request runs Python. phi0_keys turns arrays of windows into keys in
bulk, so the sampled estimators request keys and a repeated multiset costs
one lookup. When both learners have loo_errors_batch, phi0_keys also
pre-fills the memo: it evaluates the chunk's distinct new keys in numpy
batches, so the requests that follow are answered in C. The scalar
references on observations, which the evaluator is checked against, live
in ucompare.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import TYPE_CHECKING, Iterable, Sequence

from .dataset import Dataset
from .learners import Learner, misclassification_loss

if TYPE_CHECKING:
    import numpy as np

# Entries a memo holds before it is emptied. Every reuse the benchmark
# workloads and the tests show fits in under 2,000 keys (sampled-duplicates:
# at most 1,716 phi0 keys and 701 learning multisets; complete-enum: 680
# phi0 keys). Complete mode stores at most the C(n, m) subsets: each key,
# and each request that is not its own key. A complete run that finishes
# within about 5 minutes (n = 22, g = 4) needs at most C(22, 5) = 26,334
# phi0 entries; the cheapest complete run with more entries that passes the
# enumeration budget (n = 20, g = 5) makes about 3 * 10^9 phi0 lookups,
# about 10 minutes at the rate of the benchmark's complete-enum workload on
# a 2-core Xeon host (about 5.0 million lookups per second).
MEMO_SIZE = 2**15

# phi0_keys leaves a chunk's new keys to __missing__, one loo_errors call
# per learner and key, when there are fewer than this. On the benchmark's
# sampled-duplicates data (m = 6, d = 3, 2-core Xeon host), where most
# phi0_keys calls miss 0-7 keys, the batch calls of both learners take
# about 0.2 ms plus 15-40 us per key and the per-key path about 70 us per
# key, so the two meet at about 4 keys.
_MIN_BATCH = 4

# Keys per loo_errors_batch call are capped so that keys * m * m * d, the
# size of the largest array a built-in learner's batch builds, stays under
# this: about 300 keys at m = 6, d = 3. It bounds the memory a call takes,
# and calls of 1,024 keys there took 30-40% longer per key than calls of
# 300.
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


def _predict_rows(predictor, xs: list) -> list:
    """Labels of the rows xs; a predictor without predict_batch predicts row by row."""
    predict_batch = getattr(predictor, "predict_batch", None)
    if predict_batch is None:
        return [predictor.predict(x) for x in xs]
    return predict_batch(xs)


class KernelEvaluator(dict):
    """Kernel evaluation against one dataset, with bounded memoization.

    Rows with the same (x, y) form a class, whose id is its first 1-based
    row. Determinism guarantees that equal multisets of rows give predictors
    with identical outputs, so results are memoized per multiset, in two
    memos. The evaluator is itself a dict, the phi0 memo: it maps the key of
    a size-m multiset to its symmetrized value. A multiset in which class k
    appears r times has as key the first r rows of class k, in index order,
    for every class in it, the whole tuple sorted ascending. So a key names
    m distinct rows in 1..n, equal multisets get equal keys, and a key is a
    valid request that is its own key; when no two rows are equal, the key
    of a request is the sorted request. `_learned` maps a learning
    multiset's sorted class ids to the list [predictor a, predictor b,
    complement total], where the total stays None until
    phi_complement_total computes it. A key's multiset is evaluated as the
    difference of the two learners' loo_errors on its rows, divided by m,
    when both learners have loo_errors (bound once, at construction), and
    otherwise as the sum of phi over its m rotations, divided by m: the
    same integer divided by m, so the same float. When both learners also
    have loo_errors_batch, phi0_keys evaluates the new keys of each call in
    batches before returning them (see _prefill).

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
    sampled estimators turn their windows into keys with phi0_keys, so
    there every repeated multiset is answered in C.

    Two plain int counters record the work done: phi0_evaluations counts
    the symmetrized values computed and pair_fits the fits of the learner
    pair, one per learning multiset that `_learned` did not hold. Those are
    the fits for phi_complement_total and, for learners without
    loo_errors, for phi; the LOO path fits nothing.

    Each memo holds at most MEMO_SIZE entries and is emptied when an insert
    finds it full, so a run at any budget keeps bounded memory. Attributes
    live in slots, which a dict subclass reads faster than an instance dict;
    the `__dict__` slot still lets a caller wrap a method on one instance.
    Evaluation is single-threaded.
    """

    __slots__ = (
        "kernel",
        "data",
        "phi0_evaluations",
        "pair_fits",
        "_m",
        "_class_of",
        "_members",
        "_rows",
        "_learned",
        "_key_tables",
        "_loo",
        "_batch",
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
        self._learned: dict[tuple, list] = {}
        # phi0_keys's numpy tables, built on its first call.
        self._key_tables = None
        # Both learners' leave-one-out counts, or None when either lacks
        # them. Bound methods of the learners, not of the evaluator, so the
        # evaluator holds no reference back to itself.
        loo_a = getattr(kernel.learner_a, "loo_errors", None)
        loo_b = getattr(kernel.learner_b, "loo_errors", None)
        self._loo = None if loo_a is None or loo_b is None else (loo_a, loo_b)
        batch_a = getattr(kernel.learner_a, "loo_errors_batch", None)
        batch_b = getattr(kernel.learner_b, "loo_errors_batch", None)
        self._batch = None if batch_a is None or batch_b is None else (batch_a, batch_b)

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
        try:
            ids = sorted(map(self._class_of, request))
        except KeyError as exc:
            raise IndexError(f"index {exc.args[0]!r} outside 1..{self.data.n}") from None
        if len(ids) != m or len(set(request)) != m:
            raise ValueError(f"need {m} distinct indices, got {tuple(request)}")
        key = tuple(ids)
        if len(set(ids)) != m:
            # A class that appears r times stands for its first r rows: the
            # id k at sorted position j takes row j - ids.index(k) of class k.
            members = self._members
            key = tuple(sorted([members[k][j - ids.index(k)] for j, k in enumerate(ids)]))
        result = self.get(key)
        if result is None:
            # The sum over the m rotations of phi is learner a's LOO error
            # count minus learner b's: one integer, divided once by m.
            if self._loo is None:
                total = sum([self.phi(key[:i] + key[i + 1 :], key[i]) for i in range(m)])
            else:
                loo_a, loo_b = self._loo
                rows = tuple(map(self._rows.__getitem__, key))
                total = loo_a(rows) - loo_b(rows)
            self.phi0_evaluations += 1
            result = _remember(self, key, total / m)
        if request != key:
            _remember(self, request, result)
        return result

    def phi0_keys(self, windows: np.ndarray) -> list[tuple[int, ...]]:
        """The phi0 keys of the rows of windows, an integer array of shape (count, m).

        Each key equals the one __missing__ builds for that row as a request,
        after the same checks: IndexError for an index outside 1..n and
        ValueError for a window that repeats an index. The first call imports
        numpy and builds the lookup tables. When both learners have
        loo_errors_batch, the keys the memo lacks are evaluated before the
        keys are returned.
        """
        import numpy as np

        n, m = self.data.n, self._m
        if windows.ndim != 2 or windows.shape[1] != m:
            raise ValueError(f"need windows of {m} indices, got shape {windows.shape}")
        if windows.size and not (windows.min() >= 1 and windows.max() <= n):
            raise IndexError(f"window index outside 1..{n}")
        if self._key_tables is None:
            # by_class lists every class's rows in index order, class after
            # class, the classes in canonical (x, y) order; place[i] is where
            # row i sits in it, and class_start[p] where the class of the
            # row at p starts. x and y hold the rows in by_class's order,
            # for loo_errors_batch.
            members, rows = self._members, self._rows
            ids = sorted(members, key=lambda k: (rows[k].x, rows[k].y))
            by_class = np.array([i for k in ids for i in members[k]])
            place = np.empty(n + 1, dtype=np.int64)
            place[by_class] = np.arange(n)
            class_start = place[[k for k in ids for _ in members[k]]]
            x = np.array([rows[i].x for i in by_class], dtype=float)
            y = np.array([rows[i].y for i in by_class])
            self._key_tables = by_class, place, class_start, x, y
        by_class, place, class_start, _, _ = self._key_tables
        # Sorted places group each window's rows by class; a repeated index
        # shows as two equal neighbours. A stable sort of these short rows
        # touches less new numpy code, so less resident memory, than the
        # default one.
        ordered = np.sort(place[windows], axis=1, kind="stable")
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError(f"need {m} distinct indices in every window")
        # The j-th member of a class in a window (from 0) becomes the class's
        # j-th row. Along the run of a class that starts at column f, the
        # running maximum of (class start - column) is class start - f,
        # since every earlier class ends before this one starts; adding the
        # column back gives class start + (column - f).
        columns = np.arange(m)
        canonical = np.maximum.accumulate(class_start[ordered] - columns, axis=1) + columns
        keys = list(map(tuple, np.sort(by_class[canonical], axis=1, kind="stable").tolist()))
        if self._batch is not None:
            self._prefill(keys)
        return keys

    def _prefill(self, keys: list[tuple[int, ...]]) -> None:
        """Store phi0 of the distinct keys the memo lacks, in loo_errors_batch calls.

        Fewer than _MIN_BATCH such keys are left to __missing__, as is every
        key that either learner's batch does not answer, so a key that
        raises raises when it is requested, as it would without the batch.
        The memo is emptied first if the new keys would not fit in it.
        """
        import numpy as np

        missing = list(dict.fromkeys(filterfalse(self.__contains__, keys)))
        if len(missing) < _MIN_BATCH:
            return
        if len(self) + len(missing) > MEMO_SIZE:
            self.clear()
        _, place, _, x, y = self._key_tables
        # A key's rows at ascending places: the subset in canonical order.
        subsets = np.sort(place[np.array(missing)], axis=1)
        m = self._m
        step = max(1, _BATCH_ELEMENTS // (m * m * max(x.shape[1], 1)))
        batch_a, batch_b = self._batch
        for start in range(0, len(missing), step):
            block = subsets[start : start + step]
            errors_a, answered_a = batch_a(x, y, block)
            errors_b, answered_b = batch_b(x, y, block)
            for key, a, b, answered in zip(
                missing[start : start + step],
                errors_a.tolist(),
                errors_b.tolist(),
                (answered_a & answered_b).tolist(),
            ):
                if answered:
                    self.phi0_evaluations += 1
                    _remember(self, key, (a - b) / m)

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
            self.pair_fits += 1
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

    def product(self, first: tuple[int, ...], second: tuple[int, ...] | None = None) -> float:
        """phi0(first) * phi0(second) on the two windows of one draw.

        At full overlap both windows are the same: second is omitted and the
        result is phi0(first) squared, from one request.
        """
        value = self.phi0(first)
        return value * (value if second is None else self.phi0(second))
