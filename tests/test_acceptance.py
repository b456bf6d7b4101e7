"""End-to-end acceptance suite.

Every test prints one [PASS]/[FAIL] line (run pytest with -s to watch them)
and then asserts the same condition. Exact checks enumerate tiny discrete
scenarios in full; simulation checks run from fixed master seeds on one
thread and stay inside the stated runtime limits.
"""

import json
import math
import re
import time
import warnings

import pytest

import ucompare as uc
from ucompare import oracle
from ucompare.cli import main as cli_main
from ucompare.designs import (
    hypergeometric_weights,
    iterations_for_digits,
    make_stream,
    sample_ordered_subsets,
)
from ucompare.estimators import (
    EstimatorConfig,
    _combine,
    complete_u_statistic,
    estimate_delta,
    estimate_variance,
)
from ucompare.inference import normal_cdf
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import centroid_learner, constant_learner, knn_learner, stump_learner

from support import approximation_error_bound, kfold_design, sample_dataset

MASTER_SEED = 20260823

#: Three separable atoms, P(y=1) = 0.8: kept away from 1/2 so the constant-0
#: learner's error has a comfortably nondegenerate variance at n = 60.
NORMALITY_ROWS = [((0.0,), 0, 0.2), ((1.0,), 1, 0.4), ((2.0,), 1, 0.4)]
NORMALITY_BUDGET = 1500
NORMALITY_REPLICATES = 2000

LEVEL_BUDGET = 1000
LEVEL_REPLICATES = 2000


def verdict(number: int, passed: bool, detail: str) -> bool:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")
    return passed


def small_scenario_kernel(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(knn_learner(1), constant_learner(0), g=g)


def ks_distance_to_normal(sample) -> float:
    xs = sorted(sample)
    k = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        cdf = normal_cdf(x)
        worst = max(worst, abs((i + 1) / k - cdf), abs(i / k - cdf))
    return worst


def test_criterion_01_point_estimate_exactly_unbiased():
    started = time.perf_counter()
    kernel = small_scenario_kernel(g=1)
    config = EstimatorConfig(mode="complete")
    truth = oracle.true_delta(oracle.MIXED_LABELS, kernel)
    mean, _ = oracle.exact_estimator_moments(
        oracle.MIXED_LABELS, 4, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
    )
    elapsed = time.perf_counter() - started
    residual = abs(mean - truth)
    ok = residual <= 1e-10 and elapsed < 10.0
    assert verdict(
        1, ok, f"point estimate exactly unbiased, residual={residual:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_02_variance_estimate_exactly_unbiased_at_boundary():
    # n = 2g + 2 = 4 is the smallest sample where the estimate exists.
    started = time.perf_counter()
    kernel = small_scenario_kernel(g=1)
    config = EstimatorConfig(mode="complete")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_v, _ = oracle.exact_estimator_moments(
            oracle.MIXED_LABELS,
            4,
            lambda ds: estimate_variance(KernelEvaluator(kernel, ds), config).v_hat,
        )
    _, var_delta = oracle.exact_estimator_moments(
        oracle.MIXED_LABELS, 4, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
    )
    elapsed = time.perf_counter() - started
    residual = abs(mean_v - var_delta)
    ok = residual <= 1e-10 and elapsed < 60.0
    assert verdict(
        2, ok, f"variance estimate exactly unbiased at n=2g+2, residual={residual:.2e} ({elapsed:.1f}s)"
    )


@pytest.mark.parametrize("n,g", [(4, 1), (5, 1), (6, 2)])
def test_criterion_03_variance_decomposition(n, g):
    kernel = small_scenario_kernel(g=g)
    config = EstimatorConfig(mode="complete")
    _, var_delta = oracle.exact_estimator_moments(
        oracle.MIXED_LABELS, n, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
    )
    m = g + 1
    weights = hypergeometric_weights(n, m)
    kappas = tuple(oracle.true_kappa_c(oracle.MIXED_LABELS, kernel, c) for c in range(1, m + 1))
    delta = oracle.true_delta(oracle.MIXED_LABELS, kernel)
    decomposition = _combine(weights, kappas, delta * delta)
    residual = abs(var_delta - decomposition)
    ok = residual <= 1e-10
    assert verdict(
        3, ok, f"overlap decomposition matches at (n={n}, g={g}), residual={residual:.2e}"
    )


def test_criterion_04_smaller_variance_than_two_fold_cv():
    kernel = small_scenario_kernel(g=2)
    config = EstimatorConfig(mode="complete")
    design = kfold_design(4, 2)

    def cv_estimate(ds):
        ev = KernelEvaluator(kernel, ds)
        return math.fsum(ev.phi(split.learn, split.test) for split in design) / len(
            design
        )

    _, var_subsets = oracle.exact_estimator_moments(
        oracle.MIXED_LABELS, 4, lambda ds: estimate_delta(KernelEvaluator(kernel, ds), config)
    )
    _, var_cv = oracle.exact_estimator_moments(oracle.MIXED_LABELS, 4, cv_estimate)
    margin = var_cv - var_subsets
    ok = margin > 1e-6
    assert verdict(
        4, ok, f"all-subset average beats 2-fold CV, variance margin={margin:.2e}"
    )


def test_criterion_05_leave_one_out_identity():
    worst = 0.0
    pairs = [
        (knn_learner(1), constant_learner(0)),
        (stump_learner(), centroid_learner()),
    ]
    for n in range(4, 9):
        rng = make_stream(MASTER_SEED, (5, n))
        features = rng.random((n, 2))
        labels = rng.integers(0, 2, size=n).tolist()
        data = uc.Dataset.from_arrays(features.tolist(), labels)
        for learner_a, learner_b in pairs:
            kernel = ComparisonKernel(learner_a, learner_b, g=n - 1)
            ev = KernelEvaluator(kernel, data)
            complete = estimate_delta(ev, EstimatorConfig(mode="complete"))
            folds = kfold_design(n, n - 1)
            loo = math.fsum(ev.phi(split.learn, split.test) for split in folds) / n
            worst = max(worst, abs(complete - loo))
    ok = worst <= 1e-12
    assert verdict(
        5, ok, f"leave-one-out equals the n-fold CV average, worst residual={worst:.2e}"
    )


def test_criterion_06_concentration_of_random_subset_average():
    started = time.perf_counter()
    values = [0.13, 0.82, 0.47, 0.95, 0.21, 0.68, 0.04, 0.59]
    data = uc.Dataset.from_arrays([(v,) for v in values], [0, 1, 0, 1, 0, 1, 0, 1])

    def toy(subset):
        return (values[subset[0] - 1] - values[subset[1] - 1]) ** 2 / 2.0

    complete = complete_u_statistic(toy, data.n, 2)
    tolerance, draws, seeds = 0.1, 2000, 2000
    violations = 0
    for seed in range(seeds):
        subsets = sample_ordered_subsets(data.n, 2, draws, make_stream(MASTER_SEED, (6, seed)))
        inc = math.fsum(map(toy, subsets.tolist())) / draws
        if abs(inc - complete) >= tolerance:
            violations += 1
    frequency = violations / seeds
    bound = approximation_error_bound(tolerance, draws)
    allowance = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / seeds)
    elapsed = time.perf_counter() - started
    ok = frequency <= allowance and elapsed < 60.0
    assert verdict(
        6,
        ok,
        f"deviation frequency {frequency:.2e} within bound {allowance:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_07_digit_budget_and_bound_value():
    budget = iterations_for_digits(2)
    bound = approximation_error_bound(1e-2, budget)
    residual = abs(bound - 2.0 * math.exp(-5.0))
    ok = budget == 100_000 and residual <= 1e-12
    assert verdict(
        7, ok, f"two digits cost {budget} draws, tail bound residual={residual:.2e}"
    )


@pytest.mark.slow
def test_criterion_08_studentized_statistic_is_asymptotically_normal():
    started = time.perf_counter()
    dist = oracle.DiscreteDistribution.from_rows(NORMALITY_ROWS)
    kernel = ComparisonKernel(knn_learner(1), constant_learner(0), g=2)
    truth = oracle.true_delta(dist, kernel)
    statistics = []
    skipped = 0
    for rep in range(NORMALITY_REPLICATES):
        data = sample_dataset(dist, 60, make_stream(MASTER_SEED, (0, rep)))
        config = EstimatorConfig(draws=NORMALITY_BUDGET, seed=rep)
        evaluator = KernelEvaluator(kernel, data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            delta_hat = estimate_delta(evaluator, config)
            variance = estimate_variance(evaluator, config)
        if variance.v_hat <= 0.0:
            skipped += 1
            continue
        statistics.append((delta_hat - truth) / math.sqrt(variance.v_hat))
    distance = ks_distance_to_normal(statistics)
    elapsed = time.perf_counter() - started
    ok = distance <= 0.06 and elapsed < 900.0
    assert verdict(
        8,
        ok,
        f"KS distance to standard normal {distance:.4f} over {len(statistics)} "
        f"replicates, {skipped} skipped ({elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_09_test_level_under_label_symmetry():
    dist = oracle.BALANCED_LABELS
    kernel = ComparisonKernel(constant_learner(1), constant_learner(0), g=2)
    truth = oracle.true_delta(dist, kernel)
    assert abs(truth) <= 1e-12
    rejections = 0
    decided = 0
    for rep in range(LEVEL_REPLICATES):
        data = sample_dataset(dist, 100, make_stream(MASTER_SEED, (1, rep)))
        config = EstimatorConfig(draws=LEVEL_BUDGET, seed=rep)
        evaluator = KernelEvaluator(kernel, data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            delta_hat = estimate_delta(evaluator, config)
            variance = estimate_variance(evaluator, config)
        result = uc.test_error_difference(delta_hat, variance, alpha=0.05)
        if result.degenerate:
            continue
        decided += 1
        if result.reject:
            rejections += 1
    rate = rejections / decided
    ok = 0.03 <= rate <= 0.08
    assert verdict(
        9, ok, f"empirical level {rate:.4f} over {decided} decided replicates"
    )


def _mask_timing(text: str) -> str:
    return re.sub(r'"wall_time_s": [^}]*', '"wall_time_s": 0', text)


def _mask_threads(text: str) -> str:
    return re.sub(r'"threads": \d+', '"threads": 0', text)


def test_criterion_10_reports_reproduce_byte_for_byte(tmp_path, capsys):
    rng = make_stream(MASTER_SEED, (10,))
    labels = rng.integers(0, 2, size=20).tolist()
    features = rng.random(20).tolist()
    lines = ["x1,y"] + [f"{x!r},{y}" for x, y in zip(features, labels)]
    csv_path = tmp_path / "repro.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    def run(threads: int) -> str:
        code = cli_main(
            [
                "compare",
                "--data",
                str(csv_path),
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "2",
                "--iterations",
                "2000",
                "--seed",
                "11",
                "--threads",
                str(threads),
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    first = run(1)
    second = run(1)
    pooled = run(4)
    same_run = _mask_timing(first) == _mask_timing(second)
    same_threads = _mask_threads(_mask_timing(first)) == _mask_threads(_mask_timing(pooled))
    outputs_equal = (
        json.loads(first)["outputs"] == json.loads(pooled)["outputs"]
    )
    ok = same_run and same_threads and outputs_equal
    assert verdict(
        10,
        ok,
        "reports byte-identical across runs and thread counts "
        f"(rerun={same_run}, threads={same_threads})",
    )
