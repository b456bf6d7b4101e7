import itertools
import json
import os
import re
import sys
import time

import pytest

from ucompare import cli, estimators, oracle
from ucompare.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SAMPLE_TOO_SMALL,
    main,
)
from ucompare.designs import hypergeometric_weights

from support import squared_point_variance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from workloads import WORKLOADS, write_dataset  # noqa: E402


def write_csv(path, labels, features=None):
    if features is None:
        features = [float(i) for i in range(len(labels))]
    lines = ["x1,y"] + [f"{x},{y}" for x, y in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def mask_timing(text):
    return re.sub(r'"wall_time_s": [^}]*', '"wall_time_s": 0', text)


@pytest.fixture()
def four_row_csv(tmp_path):
    return write_csv(tmp_path / "four.csv", [0, 1, 1, 0])


@pytest.fixture()
def eight_row_csv(tmp_path):
    return write_csv(tmp_path / "eight.csv", [0, 1, 1, 0, 1, 0, 0, 1])


class TestCompareHappyPath:
    def test_complete_four_row_report(self, four_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                four_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--complete",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        # Both variance routes are nonpositive on this tiny sample, so the
        # run ends degenerate but still prints the full report.
        assert rc == EXIT_DEGENERATE
        assert report["schema"] == 1
        assert report["inputs"]["mode"] == "complete"
        assert report["outputs"]["delta_hat"] == pytest.approx(1 / 6, abs=1e-15)
        assert report["outputs"]["kappa_hats"][0] == pytest.approx(-1 / 12, abs=1e-15)
        assert report["outputs"]["theta2_hat"] == pytest.approx(1 / 6, abs=1e-15)
        assert report["outputs"]["v_hat"] == pytest.approx(-5 / 36, abs=1e-15)
        assert report["outputs"]["v_hat_nonpositive"] is True
        assert report["outputs"]["degenerate"] is True
        assert report["outputs"]["p_value"] is None
        assert report["outputs"]["reject"] is None

    def test_incomplete_run_succeeds(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "400",
                "--seed",
                "5",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["inputs"]["budgets"] == {"delta": 400, "kappa": 400, "theta2": 400}
        assert report["inputs"]["seed"] == 5
        assert report["outputs"]["degenerate"] is False
        assert 0.0 <= report["outputs"]["p_value"] <= 1.0
        assert report["outputs"]["ci_low"] <= report["outputs"]["delta_hat"]
        assert report["outputs"]["delta_hat"] <= report["outputs"]["ci_high"]

    def test_provenance_counts_evaluations_and_fits(self, four_row_csv, capsys):
        # No two of the four rows are equal, so the complete run evaluates
        # each of the C(4, 2) pairs once and fits each of the C(4, 1)
        # learning sets once.
        main(
            [
                "compare", "--data", four_row_csv, "--learner-a", "knn:1",
                "--learner-b", "const:0", "--g", "1", "--complete",
            ]
        )
        provenance = json.loads(capsys.readouterr().out)["provenance"]
        assert list(provenance) == [
            "version", "rng", "threads", "wall_time_s", "phi0_evaluations", "pair_fits"
        ]
        assert provenance["phi0_evaluations"] == 6
        assert provenance["pair_fits"] == 4

    @pytest.mark.parametrize(
        "name", ["sampled-small-g", "sampled-large-g", "sampled-duplicates"]
    )
    def test_benchmark_runs_fit_nothing(self, tmp_path, capsys, name):
        # On the benchmark's seed-0 data the batches answer every learning
        # set of the point estimate and every phi0 key, so the run fits no
        # learner. A change that drops a batch, or leaves its keys to
        # fitting, shows here as pair_fits > 0.
        workload = WORKLOADS[name]
        data = str(tmp_path / f"{name}.csv")
        write_dataset(workload, 0, data)
        assert main(workload.argv(data)) in (EXIT_OK, EXIT_DEGENERATE)
        assert json.loads(capsys.readouterr().out)["provenance"]["pair_fits"] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_complete_run_on_repeated_rows_misses_once_per_request(
        self, tmp_path, capsys, monkeypatch
    ):
        # 17 rows of 8 (x, y) atoms. A subset holding a later row of some
        # atom is not its own key; it enters __missing__ once, is stored
        # under itself, and every repeat is answered by the lookup.
        atoms = [(float(a // 2), a % 2) for a in range(8)]
        rows = [atoms[i * 3 % 8] for i in range(17)]
        csv_path = write_csv(tmp_path / "atoms.csv", [y for _, y in rows], [x for x, _ in rows])
        argv = [
            "compare", "--data", csv_path, "--learner-a", "knn:3",
            "--learner-b", "stump", "--g", "2", "--complete",
        ]
        misses = []
        missing = cli.KernelEvaluator.__missing__

        def counted(evaluator, request):
            misses.append(request)
            return missing(evaluator, request)

        with monkeypatch.context() as patch:
            patch.setattr(cli.KernelEvaluator, "__missing__", counted)
            rc = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert len(misses) == len(set(misses)) == 680  # C(17, 3)
        multisets = {
            tuple(sorted(rows[i] for i in subset))
            for subset in itertools.combinations(range(17), 3)
        }
        assert report["provenance"]["phi0_evaluations"] == len(multisets) < 680

        # The same report from the scalar reference, which evaluates each
        # distinct request afresh and shares nothing between requests.
        values = {}

        def reference_phi0(evaluator, request):
            if request not in values:
                subset = [evaluator.data.observation(i) for i in request]
                values[request] = oracle.phi0_value(evaluator.kernel, subset)
            return values[request]

        monkeypatch.setattr(cli.KernelEvaluator, "phi0", reference_phi0)
        assert main(argv) == rc
        assert json.loads(capsys.readouterr().out)["outputs"] == report["outputs"]

    def test_tab_in_data_file_name_gives_valid_json(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "tab\tname.csv", [0, 1, 1, 0, 1, 0, 0, 1])
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "400",
                "--seed",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "\t" not in out
        assert json.loads(out)["inputs"]["data"] == csv_path

    def test_variance_recombines_from_report(self, eight_row_csv, capsys):
        main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "300",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        out = report["outputs"]
        weights = hypergeometric_weights(report["inputs"]["n"], report["inputs"]["g"] + 1)
        recombined = (
            weights.alpha[1] * out["kappa_hats"][0]
            + weights.alpha[2] * out["kappa_hats"][1]
            - (1.0 - weights.alpha[0]) * out["theta2_hat"]
        )
        assert out["v_hat"] == pytest.approx(recombined, abs=1e-12)

    def test_default_budget_comes_from_two_digits(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert report["inputs"]["budgets"]["delta"] == 100_000

    def test_digits_override_iterations_with_warning(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--digits",
                "1",
                "--iterations",
                "7",
            ]
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == EXIT_OK
        assert "--digits wins" in captured.err
        assert report["inputs"]["budgets"]["delta"] == 1000

    @pytest.mark.parametrize("mode", [["--complete"], ["--iterations", "200"]])
    @pytest.mark.parametrize("learners", [("knn:3", "stump"), ("centroid", "const:1")])
    def test_label_only_rows(self, tmp_path, capsys, learners, mode):
        # No feature column: every row has x = (), and each learner fits
        # its majority or vote rule on the labels alone.
        path = tmp_path / "labels.csv"
        path.write_text("y\n" + "".join(f"{y}\n" for y in [0, 1, 1, 0, 1, 0, 0, 1, 1]))
        argv = ["compare", "--data", str(path), "--learner-a", learners[0]]
        rc = main(argv + ["--learner-b", learners[1], "--g", "3", *mode])
        assert rc in (EXIT_OK, EXIT_DEGENERATE)
        assert json.loads(capsys.readouterr().out)["inputs"]["n"] == 9


# A fixed 12-row, two-feature sample; its reports are pinned byte for byte.
GOLDEN_CSV = """x1,x2,y
0.31,1.7,0
-0.42,0.05,0
1.13,-0.66,1
0.88,2.41,1
-1.25,0.37,0
0.07,-1.9,1
2.2,0.93,1
-0.61,-0.48,0
1.46,1.12,1
-0.17,0.74,0
0.59,-0.21,0
-0.93,1.58,1
"""

# The exact stdout of `compare` on GOLDEN_CSV, with the data path and the
# wall time masked: key order, float format and every value.
GOLDEN_REPORTS = {
    "incomplete": (
        '{"schema": 1, "inputs": {"data": "*", "learner_a": "knn:3", '
        '"learner_b": "stump", "g": 3, "n": 12, "mode": "incomplete", '
        '"budgets": {"delta": 200, "kappa": 200, "theta2": 200}, "seed": 5, '
        '"variance_mode": "unbiased", "alpha": 0.10000000000000001, '
        '"label_column": null, "has_header": true, "threads": 1}, '
        '"outputs": {"delta_hat": 0.10111111111111111, '
        '"kappa_hats": [-0.0050000000000000001, 0.018124999999999999, '
        '0.035624999999999997, 0.20281250000000001], '
        '"theta2_hat": -0.0028124999999999999, "v_hat": 0.0090164141414141412, '
        '"v_hat_nonpositive": false, "degeneracy_warning": true, '
        '"u_n": 0.0090164141414141412, "variance_mode_used": "unbiased", '
        '"statistic": 1.0648341164377326, "p_value": 0.28695100347523417, '
        '"ci_low": -0.055075636917383167, "ci_high": 0.2572978591396054, '
        '"reject": false, "degenerate": false}, "provenance": {"version": "0.1.0", '
        '"rng": "numpy-pcg64-seedseq", "threads": 1, "wall_time_s": 0}}'
    ),
    "complete": (
        '{"schema": 1, "inputs": {"data": "*", "learner_a": "knn:3", '
        '"learner_b": "stump", "g": 3, "n": 12, "mode": "complete", '
        '"budgets": {"delta": 200, "kappa": 200, "theta2": 200}, "seed": 5, '
        '"variance_mode": "unbiased", "alpha": 0.10000000000000001, '
        '"label_column": null, "has_header": true, "threads": 1}, '
        '"outputs": {"delta_hat": 0.09494949494949495, '
        '"kappa_hats": [-0.0013347763347763349, 0.019298641173641176, '
        '0.044089330808080814, 0.21818181818181817], '
        '"theta2_hat": -0.0015656565656565658, "v_hat": 0.010581063156820733, '
        '"v_hat_nonpositive": false, "degeneracy_warning": false, '
        '"u_n": 0.010581063156820733, "variance_mode_used": "unbiased", '
        '"statistic": 0.92305590661685966, "p_value": 0.35597807136903015, '
        '"ci_low": -0.074247213532988521, "ci_high": 0.26414620343197842, '
        '"reject": false, "degenerate": false}, "provenance": {"version": "0.1.0", '
        '"rng": "numpy-pcg64-seedseq", "threads": 1, "wall_time_s": 0}}'
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_REPORTS))
def test_golden_report(tmp_path, capsys, mode):
    csv_path = tmp_path / "golden.csv"
    csv_path.write_text(GOLDEN_CSV)
    argv = [
        "compare",
        "--data",
        str(csv_path),
        "--learner-a",
        "knn:3",
        "--learner-b",
        "stump",
        "--g",
        "3",
        "--iterations",
        "200",
        "--seed",
        "5",
        "--alpha",
        "0.1",
    ]
    if mode == "complete":
        argv.append("--complete")
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    masked = mask_timing(re.sub(r'"data": "[^"]*"', '"data": "*"', out))
    assert masked == GOLDEN_REPORTS[mode] + "\n"


class TestCompareDeterminism:
    def run_once(self, csv_path, capsys, extra=()):
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "250",
                "--seed",
                "9",
                *extra,
            ]
        )
        assert rc == EXIT_OK
        return capsys.readouterr().out

    def test_identical_bytes_across_runs(self, eight_row_csv, capsys):
        first = self.run_once(eight_row_csv, capsys)
        second = self.run_once(eight_row_csv, capsys)
        assert mask_timing(first) == mask_timing(second)

    def test_thread_count_changes_nothing_but_provenance(self, eight_row_csv, capsys):
        single = json.loads(self.run_once(eight_row_csv, capsys, ("--threads", "1")))
        pooled = json.loads(self.run_once(eight_row_csv, capsys, ("--threads", "4")))
        assert single["outputs"] == pooled["outputs"]
        assert pooled["inputs"]["threads"] == 4

    def test_random_seed_varies(self, eight_row_csv, capsys):
        seeds = set()
        for _ in range(2):
            rc = main(
                [
                    "compare",
                    "--data",
                    eight_row_csv,
                    "--learner-a",
                    "const:1",
                    "--learner-b",
                    "const:0",
                    "--g",
                    "1",
                    "--iterations",
                    "50",
                    "--seed",
                    "random",
                ]
            )
            assert rc == EXIT_OK
            seeds.add(json.loads(capsys.readouterr().out)["inputs"]["seed"])
        assert len(seeds) == 2


class TestCompareFailures:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--data",
                str(tmp_path / "nope.csv"),
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
            ]
        )
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_bad_learner_id(self, four_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                four_row_csv,
                "--learner-a",
                "forest:100",
                "--learner-b",
                "const:0",
                "--g",
                "1",
            ]
        )
        assert rc == EXIT_INPUT
        assert "forest" in capsys.readouterr().err

    def test_g_out_of_range(self, four_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                four_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "4",
            ]
        )
        assert rc == EXIT_INPUT

    def test_sample_too_small_for_variance(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "n62.csv", [i % 2 for i in range(62)])
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "31",
            ]
        )
        assert rc == EXIT_SAMPLE_TOO_SMALL
        assert "2g + 2" in capsys.readouterr().err

    def test_boundary_g_just_fits(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "n62b.csv", [i % 2 for i in range(62)])
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "30",
                "--iterations",
                "50",
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["n"] == 62

    def test_bad_alpha(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--alpha",
                "1.5",
            ]
        )
        assert rc == EXIT_INPUT

    def test_bad_digits(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--digits",
                "0",
            ]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "abc"])
    def test_bad_seed_is_a_one_line_usage_error(self, eight_row_csv, capsys, seed):
        argv = [
            "compare",
            "--data",
            eight_row_csv,
            "--learner-a",
            "knn:1",
            "--learner-b",
            "const:0",
            "--g",
            "1",
            "--seed",
            seed,
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("ucompare compare: error: argument --seed:")
        assert repr(seed) in err
        assert err.count("\n") == 1

    def test_largest_seed_is_accepted(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "10",
                "--seed",
                str(2**64 - 1),
            ]
        )
        assert rc in (EXIT_OK, EXIT_DEGENERATE)
        assert json.loads(capsys.readouterr().out)["inputs"]["seed"] == 2**64 - 1

    def run_small(self, csv_path, *extra):
        return main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "10",
                *extra,
            ]
        )

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_thread_option_exits_with_one_line(self, eight_row_csv, capsys, threads):
        rc = self.run_small(eight_row_csv, "--threads", threads)
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: --threads must be an integer >= 1, got {threads!r}\n"

    def test_oversized_iterations_exit_with_one_line(self, eight_row_csv, capsys):
        rc = self.run_small(eight_row_csv, "--iterations", str(10**20))
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: --iterations must lie in 1..10^18, got {10**20}\n"

    def test_out_of_memory_draws_exit_with_one_line(self, eight_row_csv, capsys, monkeypatch):
        def sampler(n, k, count, rng):
            raise MemoryError

        monkeypatch.setattr(estimators, "sample_ordered_subsets", sampler)
        rc = self.run_small(eight_row_csv)
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [
            "error: out of memory at a budget of 10 draws per statistic; "
            "lower --digits or --iterations"
        ]

    def test_complete_budget_checked_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # n = 30, g = 3: kappa_1 would need C(30,7) = 2,035,800 subsets.
        csv_path = write_csv(tmp_path / "n30.csv", [i % 2 for i in range(30)])
        fits = []

        class Counted:
            def __init__(self, inner):
                self.inner = inner

            def fit(self, learning_set):
                fits.append(learning_set)
                return self.inner.fit(learning_set)

        parse = cli.parse_learner
        monkeypatch.setattr(cli, "parse_learner", lambda spec: Counted(parse(spec)))
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "3",
                "--complete",
            ]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert fits == []
        assert captured.out == ""
        assert captured.err == (
            "error: complete enumeration needs C(30,7) = 2035800 evaluations, "
            "over the budget of 1000000\n"
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"x1,y\n0.5,0\n\xff,1\n", "error: not UTF-8 text"),
            (b"x1,y\n0.5,0\n" + b"1" * 200_000 + b",1\n", "error: line 3: field larger"),
        ],
        ids=["non-utf8", "overlong-field"],
    )
    def test_bad_data_file_exits_with_one_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        rc = self.run_small(str(path))
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_byte_order_mark_file_loads_by_header_name(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        rows = [f"{y},{x}.0" for x, y in enumerate([0, 1, 1, 0, 1, 0, 0, 1])]
        path.write_text("y,x1\n" + "\n".join(rows) + "\n", encoding="utf-8-sig")
        rc = self.run_small(str(path), "--label-col", "y")
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_DEGENERATE)
        assert json.loads(captured.out)["inputs"]["n"] == 8

    def test_tiny_alpha_exits_before_any_fit(self, eight_row_csv, capsys, monkeypatch):
        # 1 - 1e-17/2 rounds to 1.0, whose normal quantile is infinite.
        fits = []

        class Counted:
            def __init__(self, inner):
                self.inner = inner

            def fit(self, learning_set):
                fits.append(learning_set)
                return self.inner.fit(learning_set)

        parse = cli.parse_learner
        monkeypatch.setattr(cli, "parse_learner", lambda spec: Counted(parse(spec)))
        rc = self.run_small(eight_row_csv, "--alpha", "1e-17")
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert fits == []
        assert captured.out == ""
        assert captured.err == "error: --alpha must lie strictly between 2^-53 and 1, got 1e-17\n"

    def test_huge_digits_exit_at_once(self, eight_row_csv, capsys):
        started = time.perf_counter()
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--digits",
                "1000000000",
            ]
        )
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert elapsed < 1.0
        assert captured.out == ""
        assert captured.err == (
            "error: 10^2000000001 draws exceeds the 64-bit budget range; "
            "digits=1000000000 is not a practical request\n"
        )

    HUGE_FEATURES = [-1e308, 1.7e308, -5e307, 1.2e308, 0.0, 1.6e308, -1e308, 1.5e308]

    @pytest.mark.parametrize("learner", ["centroid", "knn:1"])
    def test_overflowing_features_exit_with_one_line(self, tmp_path, capsys, learner):
        csv_path = write_csv(tmp_path / "huge.csv", [0, 1, 1, 0, 1, 0, 0, 1], self.HUGE_FEATURES)
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                learner,
                "--learner-b",
                "stump",
                "--g",
                "2",
                "--iterations",
                "50",
            ]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("error: feature values too large")
        assert "warning" not in captured.err

    def test_stump_accepts_overflowing_midpoints(self, tmp_path, capsys):
        # 1.5e308 + 1.6e308 overflows, so some candidate thresholds are inf.
        csv_path = write_csv(tmp_path / "huge.csv", [0, 1, 1, 0, 1, 0, 0, 1], self.HUGE_FEATURES)
        rc = main(
            [
                "compare",
                "--data",
                csv_path,
                "--learner-a",
                "stump",
                "--learner-b",
                "const:0",
                "--g",
                "2",
                "--iterations",
                "50",
            ]
        )
        assert rc in (EXIT_OK, EXIT_DEGENERATE)
        assert json.loads(capsys.readouterr().out)["inputs"]["n"] == 8

    def test_identical_learners_degenerate_exit(self, eight_row_csv, capsys):
        rc = main(
            [
                "compare",
                "--data",
                eight_row_csv,
                "--learner-a",
                "knn:1",
                "--learner-b",
                "knn:1",
                "--g",
                "1",
                "--iterations",
                "100",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_DEGENERATE
        assert report["outputs"]["delta_hat"] == 0.0
        assert report["outputs"]["degenerate"] is True


class TestLabelColumnHandling:
    def test_label_by_header_name(self, tmp_path, capsys):
        path = tmp_path / "named.csv"
        path.write_text("label,f1\n0,0.0\n1,1.0\n1,2.0\n0,3.0\n1,4.0\n0,5.0\n")
        rc = main(
            [
                "compare",
                "--data",
                str(path),
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "60",
                "--label-col",
                "label",
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["label_column"] == "label"

    def test_no_header_with_index(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("0,0.0\n1,1.0\n1,2.0\n0,3.0\n1,4.0\n0,5.0\n")
        rc = main(
            [
                "compare",
                "--data",
                str(path),
                "--learner-a",
                "const:1",
                "--learner-b",
                "const:0",
                "--g",
                "1",
                "--iterations",
                "60",
                "--no-header",
                "--label-col",
                "0",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["has_header"] is False
        assert report["inputs"]["label_column"] == 0


class TestOracleCheckCommand:
    def test_all_checks_pass(self, capsys):
        rc = main(["oracle-check"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == EXIT_OK
        assert len(out) == 8
        assert all(line.startswith("PASS") for line in out)

    def test_golden_output(self, capsys):
        # Every line, residuals included: a change to a reference or an
        # estimator that moves any residual by one rounding shows here.
        rc = main(["oracle-check"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (
            "PASS knn1-vs-const0/symmetrized-kernel-mean: residual=0.000e+00 tol=1.0e-10\n"
            "PASS knn1-vs-const0/point-estimate-unbiased: residual=-1.388e-17 tol=1.0e-10\n"
            "PASS knn1-vs-const0/variance-decomposition: residual=0.000e+00 tol=1.0e-10\n"
            "PASS knn1-vs-const0/variance-estimate-unbiased: residual=0.000e+00 tol=1.0e-10\n"
            "PASS mirror-constants/symmetrized-kernel-mean: residual=0.000e+00 tol=1.0e-10\n"
            "PASS mirror-constants/point-estimate-unbiased: residual=0.000e+00 tol=1.0e-10\n"
            "PASS mirror-constants/variance-decomposition: residual=0.000e+00 tol=1.0e-10\n"
            "PASS mirror-constants/variance-estimate-unbiased: residual=0.000e+00 tol=1.0e-10\n"
        )

    def test_scenario_listing(self, capsys):
        rc = main(["oracle-check", "--list"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "knn1-vs-const0" in out
        assert "mirror-constants" in out

    def test_injected_bias_is_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "estimate_variance", squared_point_variance)
        rc = main(["oracle-check"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert "FAIL" in captured.out
        assert "variance-estimate-unbiased" in captured.out
