"""Micro-benchmark of the built-in learners: fit, predict and predict_batch.

Each learner is timed on seeded Gaussian data at the (g, d) shapes of the
perfbench workloads: a learning set of g rows with d features, and a query
batch of the workload's n rows. Every shape is timed twice: with random
labels, and with labels that follow the sign of a linear score, which often
admit a zero-error stump split, where the stump's scan stops early. Prints
microseconds per call (best of five repeats). Standard library and numpy
only; not part of the test suite.

    PYTHONPATH=src python3 bench/learners.py
"""

from __future__ import annotations

import timeit

import numpy as np

from ucompare.dataset import Observation
from ucompare.learners import parse_learner

LEARNERS = ("knn:3", "centroid", "stump", "const:0")
# (g, d, n): learning-set size, features, query rows, as in the workloads
# sampled-small-g and sampled-duplicates, sampled-large-g, complete-enum. The
# last shape matches no workload: it times the batch distance at 8 features,
# the fewest at which numpy's sum over an axis would add pairwise; there the
# batch path's column-by-column sum makes 8 numpy adds where one sum did.
SHAPES = ((5, 3, 60), (20, 5, 200), (2, 2, 17), (5, 8, 60))
REPEATS = 5
SEED = 0
SETS = 200  # learning sets per shape and labels
LABELS = ("random", "linear")


def learning_sets(rng, g, d, count, labels):
    """count seeded learning sets of g rows with d Gaussian features.

    labels "random" draws each label uniformly; "linear" labels a row 1 when
    a random linear score of its features is positive.
    """
    sets = []
    for _ in range(count):
        xs = rng.normal(size=(g, d))
        if labels == "linear":
            ys = (xs @ rng.normal(size=d) > 0).astype(int)
        else:
            ys = rng.integers(0, 2, size=g)
        sets.append([Observation(tuple(map(float, x)), int(y)) for x, y in zip(xs, ys)])
    return sets


def per_call_us(fn, calls):
    """Best-of-REPEATS microseconds per call of fn, which makes `calls` calls."""
    return min(timeit.repeat(fn, number=1, repeat=REPEATS)) / calls * 1e6


def main() -> None:
    print(f"{'learner':<10} {'labels':<7} {'g':>3} {'d':>2} {'n':>4} {'fit_us':>10} "
          f"{'predict_us':>11} {'batch_us':>10}")
    for g, d, n in SHAPES:
        for labels in LABELS:
            rng = np.random.default_rng([SEED, g, d, LABELS.index(labels)])
            sets = learning_sets(rng, g, d, SETS, labels)
            queries = [tuple(map(float, q)) for q in rng.normal(size=(n, d))]
            for name in LEARNERS:
                learner = parse_learner(name)
                fit_us = per_call_us(lambda: [learner.fit(s) for s in sets], len(sets))
                predictors = [learner.fit(s) for s in sets]
                predict_us = per_call_us(
                    lambda: [p.predict(q) for p in predictors for q in queries],
                    len(predictors) * len(queries),
                )
                batch_us = per_call_us(
                    lambda: [p.predict_batch(queries) for p in predictors], len(predictors)
                )
                print(f"{name:<10} {labels:<7} {g:>3} {d:>2} {n:>4} {fit_us:>10.2f} "
                      f"{predict_us:>11.2f} {batch_us:>10.2f}")


if __name__ == "__main__":
    main()
