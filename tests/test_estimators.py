import dataclasses
import itertools
import math
import random

import pytest

from ucompare.dataset import Dataset
from ucompare.designs import (
    BudgetExceededError,
    hypergeometric_weights,
    make_stream,
    sample_ordered_subsets,
)
from ucompare.estimators import (
    _CHUNK_DRAWS,
    _STREAM_DELTA,
    _STREAM_KAPPA,
    _STREAM_THETA2,
    COMPLETE,
    INCOMPLETE,
    EstimatorConfig,
    SampleTooSmallError,
    _window_pairs,
    complete_u_statistic,
    estimate_delta,
    estimate_kappa_c,
    estimate_theta2,
    estimate_variance,
)
from ucompare.kernels import ComparisonKernel, KernelEvaluator
from ucompare.learners import centroid_learner, constant_learner, knn_learner, stump_learner

from support import Refitting


def four_rows() -> Dataset:
    return Dataset.from_arrays(
        [(0.0,), (1.0,), (2.0,), (3.0,)],
        [0, 1, 1, 0],
    )


def six_rows() -> Dataset:
    return Dataset.from_arrays(
        [(0.0,), (1.0,), (2.0,), (3.0,), (4.0,), (5.0,)],
        [0, 1, 1, 0, 1, 0],
    )


def knn_vs_const(g: int = 1) -> ComparisonKernel:
    return ComparisonKernel(knn_learner(1), constant_learner(0), g=g)


def alternating_rows(n: int) -> Dataset:
    return Dataset.from_arrays([(float(i),) for i in range(n)], [i % 2 for i in range(n)])


def few_atom_rows(n: int) -> Dataset:
    """n rows cycling through three (x, y) atoms, so most subsets repeat one."""
    xs, ys = [(0.0,), (1.0,), (2.0,)], [0, 1, 0]
    return Dataset.from_arrays([xs[i % 3] for i in range(n)], [ys[i % 3] for i in range(n)])


def eight_atom_rows(n: int) -> Dataset:
    """n rows cycling through eight (x, y) atoms, so most windows repeat one."""
    atoms = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 2.0)]
    atoms += [(2.0, 1.0), (2.0, 2.0), (0.0, 2.0), (2.0, 0.0)]
    labels = [0, 1, 1, 0, 0, 1, 1, 0]
    return Dataset.from_arrays([atoms[i % 8] for i in range(n)], [labels[i % 8] for i in range(n)])


def gaussian_rows(n: int, seed: int = 3) -> Dataset:
    rng = random.Random(seed)
    xs = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    return Dataset.from_arrays(xs, [int(x + rng.gauss(0.0, 1.0) > 0) for x, _ in xs])


def complete_config() -> EstimatorConfig:
    return EstimatorConfig(mode=COMPLETE)


def knn_vs_const_on(data: Dataset, g: int = 1) -> KernelEvaluator:
    return KernelEvaluator(knn_vs_const(g), data)


class FitCounter:
    """Constant-0 learner that counts its fits."""

    def __init__(self):
        self.fits = 0
        self.inner = constant_learner(0)

    def fit(self, learning_set):
        self.fits += 1
        return self.inner.fit(learning_set)


class TestCompleteUStatistic:
    def test_constant_kernel(self):
        data = four_rows()
        assert complete_u_statistic(lambda _s: 1.0, data.n, 2) == 1.0

    def test_recovers_sample_variance(self):
        # The kernel (v_i - v_j)^2 / 2 averaged over all pairs is the usual
        # unbiased sample variance.
        values = {1: 1.0, 2: 3.0, 3: 7.0}
        data = Dataset.from_arrays([(v,) for v in values.values()], [0, 1, 0])

        def kernel_eval(members):
            i, j = members
            return (values[i] - values[j]) ** 2 / 2.0

        mean = sum(values.values()) / 3
        sample_var = sum((v - mean) ** 2 for v in values.values()) / 2
        assert complete_u_statistic(kernel_eval, data.n, 2) == pytest.approx(
            sample_var, abs=1e-12
        )

    def test_m_equals_n_single_subset(self):
        data = four_rows()
        assert complete_u_statistic(lambda s: float(len(s)), data.n, 4) == 4.0

    def test_budget_enforced(self):
        # C(1415, 2) = 1,000,405 pairs is just over the enumeration budget.
        seen = []
        with pytest.raises(BudgetExceededError, match=r"C\(1415,2\) = 1000405 .* budget"):
            complete_u_statistic(seen.append, 1415, 2)
        assert seen == []

    def test_degree_out_of_range(self):
        data = four_rows()
        with pytest.raises(ValueError):
            complete_u_statistic(lambda _s: 0.0, data.n, 0)
        with pytest.raises(ValueError):
            complete_u_statistic(lambda _s: 0.0, data.n, 5)


class TestEstimateDelta:
    def test_identical_learners_give_zero(self):
        data = four_rows()
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        assert estimate_delta(KernelEvaluator(kernel, data), complete_config()) == 0.0

    def test_constant_pair_complete_value(self):
        # With constant learners the symmetrized kernel averages 1 - 2y over
        # the subset, so the complete statistic is the mean of 1 - 2y.
        data = Dataset.from_arrays([(0.0,), (1.0,), (2.0,)], [1, 0, 0])
        kernel = ComparisonKernel(constant_learner(1), constant_learner(0), g=1)
        value = estimate_delta(KernelEvaluator(kernel, data), complete_config())
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_four_row_complete_value(self):
        # Enumerated by hand: the six pairwise symmetrized values are
        # 1/2, 1/2, 0, -1, 1/2, 1/2, whose mean is 1/6.
        value = estimate_delta(knn_vs_const_on(four_rows()), complete_config())
        assert value == pytest.approx(1 / 6, abs=1e-15)

    def test_incomplete_tracks_complete(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(10)],
            [0, 1, 1, 0, 1, 0, 0, 1, 1, 0],
        )
        evaluator = knn_vs_const_on(data)
        complete = estimate_delta(evaluator, complete_config())
        config = EstimatorConfig(draws=20_000, seed=42, mode=INCOMPLETE)
        incomplete = estimate_delta(evaluator, config)
        assert incomplete == pytest.approx(complete, abs=0.02)

    def test_incomplete_deterministic_across_runs(self):
        data = four_rows()
        config = EstimatorConfig(draws=500, seed=9, mode=INCOMPLETE)
        values = {estimate_delta(knn_vs_const_on(data), config) for _ in range(3)}
        assert len(values) == 1

    def test_shared_evaluator_matches_fresh(self):
        data = four_rows()
        kernel = knn_vs_const()
        config = EstimatorConfig(draws=200, seed=5, mode=INCOMPLETE)
        shared = KernelEvaluator(kernel, data)
        estimate_delta(shared, config)
        assert estimate_delta(shared, config) == estimate_delta(
            KernelEvaluator(kernel, data), config
        )

    def test_sample_too_small(self):
        data = Dataset.from_arrays([(0.0,), (1.0,)], [0, 1])
        with pytest.raises(SampleTooSmallError):
            estimate_delta(knn_vs_const_on(data, g=2), complete_config())

    def test_complete_budget_enforced(self):
        # C(1415, 2) pairs is just over the enumeration budget: no learner
        # may be fitted before the check fails.
        counter = FitCounter()
        kernel = ComparisonKernel(counter, constant_learner(1), g=1)
        evaluator = KernelEvaluator(kernel, alternating_rows(1415))
        with pytest.raises(BudgetExceededError, match=r"C\(1415,2\)"):
            estimate_delta(evaluator, complete_config())
        assert counter.fits == 0


class TestSecondMomentEstimates:
    def test_full_overlap_is_mean_squared_symmetrized_value(self):
        data = four_rows()
        kernel = knn_vs_const()
        ev = KernelEvaluator(kernel, data)
        expected = math.fsum(
            ev.phi0((i, j)) ** 2
            for i in range(1, 5)
            for j in range(i + 1, 5)
        ) / 6
        value = estimate_kappa_c(ev, 2, complete_config())
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_overlap_one_complete_value(self):
        # Hand enumeration over the four triples gives
        # (-1/4 + 1/12 + 1/12 - 1/4) / 4 = -1/12.
        value = estimate_kappa_c(knn_vs_const_on(four_rows()), 1, complete_config())
        assert value == pytest.approx(-1 / 12, abs=1e-15)

    @pytest.mark.parametrize("g, c", [(1, c) for c in range(3)] + [(2, c) for c in range(4)])
    def test_overlap_matches_ordered_window_average(self, g, c):
        # The complete estimate picks window pairs within each subset; it
        # must equal the product kernel averaged over every ordered tuple.
        data = four_rows() if g == 1 else six_rows()
        ev = knn_vs_const_on(data, g)
        m = g + 1
        products = [
            ev.phi0(t[:m]) * ev.phi0(t[m - c :])
            for t in itertools.permutations(range(1, data.n + 1), 2 * m - c)
        ]
        expected = math.fsum(products) / len(products)
        if c == 0:
            value = estimate_theta2(ev, complete_config())
        else:
            value = estimate_kappa_c(ev, c, complete_config())
        assert value == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_window_pairs_keep_the_nested_loop_order(self, m):
        # The gather must request exactly the window pairs of this nested
        # loop. fsum is correctly rounded, so the multiset of pairs fixes
        # the statistic, whatever their order; the order is pinned too, so
        # the request sequence stays the same. Every window lists its rows
        # at ascending positions, so on an ascending subset every request
        # is ascending and each repeat is answered by the C lookup.
        for c in range(m + 1):
            members = (40, 7, 23, 11, 35, 2, 19, 30)[: 2 * m - c]
            expected = []
            for first in itertools.combinations(members, m):
                rest = tuple(i for i in members if i not in first)
                for shared in itertools.combinations(first, c):
                    second = tuple(i for i in members if i in shared + rest)
                    expected += (first, second)
            pick, pairs = _window_pairs(m, c)
            assert list(pick(list(itertools.combinations(members, m)))) == expected
            assert pairs == len(expected) // 2
            assert pairs == math.comb(2 * m - c, c) * math.comb(2 * m - 2 * c, m - c)
            ascending = tuple(sorted(members))
            requests = pick(list(itertools.combinations(ascending, m)))
            assert all(list(r) == sorted(r) for r in requests)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_complete_mode_requests_ascending_subsets(self, g):
        # Every phi0 request of a complete run is an ascending tuple, so on
        # duplicate-free data the evaluator answers each repeat by the
        # request itself, and the requests are exactly the C(n, g + 1)
        # subsets.
        n = 2 * g + 3
        ev = knn_vs_const_on(alternating_rows(n), g)
        requests = []
        inner = ev.phi0

        def logged(members):
            requests.append(members)
            return inner(members)

        ev.phi0 = logged
        estimate_delta(ev, complete_config())
        estimate_variance(ev, complete_config())
        assert all(type(r) is tuple and list(r) == sorted(r) for r in requests)
        assert len(set(requests)) == math.comb(n, g + 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_complete_mode_misses_once_per_subset(self, g, monkeypatch):
        # On duplicate-free data each ascending request is its own key, so a
        # complete run enters __missing__ once per subset and every repeat
        # is answered by the dict lookup in C.
        n = 2 * g + 3
        misses = []
        missing = KernelEvaluator.__missing__

        def counted(evaluator, request):
            misses.append(request)
            return missing(evaluator, request)

        monkeypatch.setattr(KernelEvaluator, "__missing__", counted)
        # Each subset is evaluated once, and both learners are fitted once
        # on each g-row learning part, whether or not they have a batch.
        refitting = ComparisonKernel(Refitting(knn_learner(1)), constant_learner(0), g=g)
        for kernel in [knn_vs_const(g), refitting]:
            misses.clear()
            ev = KernelEvaluator(kernel, alternating_rows(n))
            estimate_delta(ev, complete_config())
            estimate_variance(ev, complete_config())
            assert len(misses) == len(set(misses)) == math.comb(n, g + 1)
            assert ev.phi0_evaluations == math.comb(n, g + 1)
            assert ev.pair_fits == math.comb(n, g)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", ["distinct", "few atoms"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_complete_mode_request_count(self, g, rows):
        # Delta requests every m-subset once; each size-(2m - c) subset of
        # the overlap-c statistic requests both windows of its
        # C(2m - c, c) * C(2m - 2c, m - c) window pairs (c = 0 is theta2).
        n, m = 2 * g + 3, g + 1
        data = alternating_rows(n) if rows == "distinct" else few_atom_rows(n)
        ev = knn_vs_const_on(data, g)
        requests = 0
        inner = ev.phi0

        def counted(members):
            nonlocal requests
            requests += 1
            return inner(members)

        ev.phi0 = counted
        estimate_delta(ev, complete_config())
        estimate_variance(ev, complete_config())
        pairs = sum(
            math.comb(n, 2 * m - c) * math.comb(2 * m - c, c) * math.comb(2 * m - 2 * c, m - c)
            for c in range(m + 1)
        )
        assert requests == math.comb(n, m) + 2 * pairs

    @pytest.mark.parametrize("rows", ["few atoms", "gaussian"])
    @pytest.mark.parametrize("g", [1, 2])
    def test_complete_products_match_the_nested_loop_bit_for_bit(self, g, rows):
        # The reference is the nested loop over window pairs: fsum of each
        # subset's fsum(products) / pairs, divided by C(n, 2m - c). On few
        # atoms most requests carry repeated class ids or share a key.
        n, m = 9, g + 1
        data = few_atom_rows(n) if rows == "few atoms" else gaussian_rows(n)
        kernel = ComparisonKernel(knn_learner(3), stump_learner(), g=g)
        phi0 = KernelEvaluator(kernel, data).phi0

        def reference(c):
            means = []
            for members in itertools.combinations(range(1, n + 1), 2 * m - c):
                products = []
                for first in itertools.combinations(members, m):
                    rest = tuple(i for i in members if i not in first)
                    for shared in itertools.combinations(first, c):
                        second = tuple(i for i in members if i in shared + rest)
                        products.append(phi0(first) * phi0(second))
                means.append(math.fsum(products) / len(products))
            return math.fsum(means) / math.comb(n, 2 * m - c)

        ev = KernelEvaluator(kernel, data)
        for c in range(1, m + 1):
            assert estimate_kappa_c(ev, c, complete_config()) == reference(c)
        assert estimate_theta2(ev, complete_config()) == reference(0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_sampled_products_match_raw_window_requests(self, g):
        # The reference requests phi0 on each draw's raw windows, as product
        # did before the estimators sent keys; more draws than one key chunk.
        n, m = 20, g + 1
        data = eight_atom_rows(n)
        kernel = ComparisonKernel(knn_learner(3), stump_learner(), g=g)
        config = EstimatorConfig(draws=_CHUNK_DRAWS + 300, seed=4, mode=INCOMPLETE)
        phi0 = KernelEvaluator(kernel, data).phi0

        def reference(c, stream_key):
            stream = make_stream(config.seed, stream_key)
            draws = sample_ordered_subsets(n, 2 * m - c, config.draws, stream).tolist()
            products = [phi0(tuple(t[:m])) * phi0(tuple(t[m - c :])) for t in draws]
            return math.fsum(products) / config.draws

        # Both windows of a chunk are keyed in one phi0_keys call, so each
        # statistic makes one call per chunk: of both windows' rows, or of
        # the one window's at full overlap.
        ev = KernelEvaluator(kernel, data)
        shapes, phi0_keys = [], ev.phi0_keys

        def counted(windows):
            shapes.append(windows.shape)
            return phi0_keys(windows)

        ev.phi0_keys = counted
        for c in range(m + 1):
            shapes.clear()
            if c:
                assert estimate_kappa_c(ev, c, config) == reference(c, (_STREAM_KAPPA, c))
            else:
                assert estimate_theta2(ev, config) == reference(0, _STREAM_THETA2)
            windows = 1 if c == m else 2
            assert shapes == [(windows * _CHUNK_DRAWS, m), (windows * 300, m)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_sampled_run_evaluates_each_distinct_multiset_once(self, g):
        # Brute force: the distinct value multisets among every requested
        # window, and among every learning set the run fits on.
        n, m = 20, g + 1
        data = eight_atom_rows(n)
        config = EstimatorConfig(draws=400, seed=6, mode=INCOMPLETE)

        def draws(k, stream_key):
            stream = make_stream(config.seed, stream_key)
            return sample_ordered_subsets(n, k, config.draws, stream).tolist()

        def multiset(rows):
            return tuple(sorted((data.observation(i).x, data.observation(i).y) for i in rows))

        windows = set()
        statistics = [(c, (_STREAM_KAPPA, c)) for c in range(1, m + 1)] + [(0, _STREAM_THETA2)]
        for c, stream_key in statistics:
            for t in draws(2 * m - c, stream_key):
                windows |= {multiset(t[:m]), multiset(t[m - c :])}
        delta_learning = {multiset(t) for t in draws(g, _STREAM_DELTA)}
        window_learning = {w[:i] + w[i + 1 :] for w in windows for i in range(m)}
        # The batches answer every new key, so the built-in learners fit
        # nothing. Learners without batches leave every key to
        # phi_complement_total and phi, which fit delta's learning sets and
        # each window's learning parts.
        built_in = (knn_learner(3), stump_learner())
        refitting = tuple(map(Refitting, built_in))
        for learners, learning in [
            (built_in, set()),
            (refitting, delta_learning | window_learning),
        ]:
            ev = KernelEvaluator(ComparisonKernel(*learners, g=g), data)
            estimate_delta(ev, config)
            estimate_variance(ev, config)
            assert 0 < ev.phi0_evaluations == len(windows) < 3 * config.draws
            assert len(ev._totals) == len(delta_learning)
            assert ev.pair_fits == len(learning)

    def test_sampled_centroid_run_refits_no_window(self):
        # On Gaussian data the centroid's batches, like kNN's, answer every
        # new key, so the run fits nothing: a key a batch left to refitting
        # would fit its learning set, or its learning parts.
        n, g = 40, 6
        data = gaussian_rows(n)
        config = EstimatorConfig(draws=300, seed=9, mode=INCOMPLETE)
        ev = KernelEvaluator(ComparisonKernel(knn_learner(3), centroid_learner(), g=g), data)
        estimate_delta(ev, config)
        estimate_variance(ev, config)
        stream = make_stream(config.seed, _STREAM_DELTA)
        draws = sample_ordered_subsets(n, g, config.draws, stream).tolist()
        assert ev.phi0_evaluations > config.draws
        assert len(ev._totals) == len({tuple(sorted(t)) for t in draws})
        assert ev.pair_fits == 0

    def test_disjoint_window_complete_value(self):
        # The three pairings of {1,2,3,4} into two disjoint pairs give
        # products 1/4, 1/4, 0, so the mean is 1/6.
        value = estimate_theta2(knn_vs_const_on(four_rows()), complete_config())
        assert value == pytest.approx(1 / 6, abs=1e-15)

    def test_overlap_out_of_range(self):
        with pytest.raises(ValueError, match="overlap"):
            estimate_kappa_c(knn_vs_const_on(four_rows()), 0, complete_config())
        with pytest.raises(ValueError, match="overlap"):
            estimate_kappa_c(knn_vs_const_on(four_rows()), 3, complete_config())

    def test_disjoint_windows_need_enough_rows(self):
        data = Dataset.from_arrays([(0.0,), (1.0,), (2.0,)], [0, 1, 0])
        with pytest.raises(SampleTooSmallError, match=r"n >= 2g \+ 2"):
            estimate_theta2(knn_vs_const_on(data), complete_config())


class TestEstimateVariance:
    def test_four_row_complete_components(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(knn_vs_const_on(four_rows()), complete_config())
        assert result.kappa_hats[0] == pytest.approx(-1 / 12, abs=1e-15)
        assert result.kappa_hats[1] == pytest.approx(1 / 3, abs=1e-15)
        assert result.theta2_hat == pytest.approx(1 / 6, abs=1e-15)
        assert result.weights.alpha == pytest.approx((1 / 6, 4 / 6, 1 / 6), abs=1e-15)
        # v = (4/6)(-1/12) + (1/6)(1/3) - (5/6)(1/6) = -5/36: legitimately
        # negative in this tiny sample, flagged rather than clamped.
        assert result.v_hat == pytest.approx(-5 / 36, abs=1e-15)
        assert result.nonpositive

    def test_combination_matches_manual_weights(self):
        data = four_rows()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(knn_vs_const_on(data), complete_config())
        weights = hypergeometric_weights(4, 2)
        manual = math.fsum(
            [
                weights.alpha[1] * result.kappa_hats[0],
                weights.alpha[2] * result.kappa_hats[1],
                -(1.0 - weights.alpha[0]) * result.theta2_hat,
            ]
        )
        assert result.v_hat == pytest.approx(manual, abs=1e-16)

    def test_standalone_estimates_match_variance_internals(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=300, seed=17, mode=INCOMPLETE)
        result = estimate_variance(knn_vs_const_on(data), config)
        assert result.kappa_hats == (
            estimate_kappa_c(knn_vs_const_on(data), 1, config),
            estimate_kappa_c(knn_vs_const_on(data), 2, config),
        )
        assert result.theta2_hat == estimate_theta2(knn_vs_const_on(data), config)

    def test_identical_learners_degenerate_and_warn(self):
        data = four_rows()
        kernel = ComparisonKernel(knn_learner(1), knn_learner(1), g=1)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = estimate_variance(KernelEvaluator(kernel, data), complete_config())
        assert result.v_hat == 0.0
        assert result.nonpositive
        assert result.degeneracy_warning

    def positive_estimate(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 0, 1, 1, 0, 1, 0],
        )
        config = EstimatorConfig(draws=300, seed=17, mode=INCOMPLETE)
        result = estimate_variance(knn_vs_const_on(data), config)
        assert result.v_hat > 0.0
        assert not result.nonpositive and not result.degeneracy_warning
        return result

    def test_nonpositive_follows_v_hat(self):
        assert dataclasses.replace(self.positive_estimate(), v_hat=-1.0).nonpositive

    def test_degeneracy_warning_follows_kappa_and_theta2(self):
        result = self.positive_estimate()
        raised = dataclasses.replace(result, theta2_hat=result.kappa_hats[0] + 0.5)
        assert raised.degeneracy_warning

    def test_negative_difference_warns_at_or_below_tolerance(self):
        # Complete mode on four rows: kappa_1 = -1/12 and theta2 = 1/6, a
        # difference far below zero, not one near it.
        with pytest.warns(
            RuntimeWarning,
            match=r"= -2\.500e-01 is at or below the tolerance 1\.0e-08; .* degenerate",
        ):
            result = estimate_variance(knn_vs_const_on(four_rows()), complete_config())
        assert result.degeneracy_warning

    def test_sample_too_small(self):
        data = four_rows()
        with pytest.raises(SampleTooSmallError, match="2g \\+ 2"):
            estimate_variance(knn_vs_const_on(data, g=2), complete_config())

    def test_complete_budget_checked_before_any_fit(self):
        # n = 30, g = 3: kappa_1 would need C(30,7) = 2,035,800 subsets.
        counter = FitCounter()
        kernel = ComparisonKernel(counter, constant_learner(1), g=3)
        evaluator = KernelEvaluator(kernel, alternating_rows(30))
        with pytest.raises(BudgetExceededError, match=r"C\(30,7\) = 2035800"):
            estimate_variance(evaluator, complete_config())
        assert counter.fits == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_incomplete_deterministic_across_runs(self):
        data = Dataset.from_arrays(
            [(float(i),) for i in range(8)],
            [0, 1, 1, 0, 1, 0, 0, 1],
        )
        config = EstimatorConfig(draws=200, seed=2, mode=INCOMPLETE)
        results = [estimate_variance(knn_vs_const_on(data), config) for _ in range(3)]
        assert len({r.v_hat for r in results}) == 1
        assert len({r.kappa_hats for r in results}) == 1


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draws": 0},
            {"draws": -1},
            {"draws": 0, "mode": COMPLETE},
            {"mode": "partial"},
            {"mode": "COMPLETE"},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_defaults(self):
        config = EstimatorConfig()
        assert config.mode == INCOMPLETE
        assert config.draws == 100_000
        assert config.seed == 0
