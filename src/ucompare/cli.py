"""Command line: run one comparison, or the exact self-check suite.

Exit codes for `compare`: 0 success, 1 ingestion, configuration or usage
problem, 2 sample too small for the variance estimate (n < 2g + 2), 3 degenerate
variance (report still printed, no decision).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

from . import __version__
from .dataset import DatasetFormatError, load_csv
from .designs import MAX_DRAWS, RNG_ALGORITHM, BudgetExceededError, iterations_for_digits
from .estimators import (
    COMPLETE,
    INCOMPLETE,
    EstimatorConfig,
    check_complete_budget,
    estimate_delta,
    estimate_variance,
)
from .inference import ALPHA_FLOOR, PLUGIN_ASYMPTOTIC, UNBIASED, test_error_difference
from .kernels import ComparisonKernel, KernelEvaluator
from .learners import parse_learner
from .oracle import CHECK_TOLERANCE, builtin_scenarios, run_checks
from .report import ComparisonReport

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SAMPLE_TOO_SMALL = 2
EXIT_DEGENERATE = 3


def _seed_value(raw: str) -> int:
    if raw == "random":
        return int.from_bytes(os.urandom(8), "big")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(
            f'expected an integer in 0..2^64 - 1 or "random", got {raw!r}'
        )
    return seed


def _label_column(raw: str) -> int | str:
    try:
        return int(raw)
    except ValueError:
        return raw


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT and one line, not argparse's usage and 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ucompare",
        description="Compare the error rates of two deterministic classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_parser = sub.add_parser("compare", help="estimate the error difference and test it")
    cmp_parser.add_argument("--data", required=True, help="CSV file of features plus a binary label")
    cmp_parser.add_argument("--learner-a", required=True, help="e.g. knn:3, centroid, stump, const:1")
    cmp_parser.add_argument("--learner-b", required=True)
    cmp_parser.add_argument("--g", required=True, type=int, help="learning-set size per split")
    cmp_parser.add_argument(
        "--digits",
        type=int,
        default=None,
        help="stable decimal digits wanted; sets the per-statistic budget to 10^(2d+1)",
    )
    cmp_parser.add_argument(
        "--iterations", type=int, default=None, help="explicit per-statistic draw budget"
    )
    cmp_parser.add_argument(
        "--seed", type=_seed_value, default=0, help='integer, or "random" for a fresh seed'
    )
    cmp_parser.add_argument("--alpha", type=float, default=0.05)
    cmp_parser.add_argument(
        "--variance-mode",
        choices=("unbiased", "plugin"),
        default="unbiased",
        help="studentize with the unbiased estimate (default) or the plug-in",
    )
    cmp_parser.add_argument(
        "--complete",
        action="store_true",
        help="enumerate every subset instead of sampling (small n only)",
    )
    cmp_parser.add_argument(
        "--label-col",
        type=_label_column,
        default=None,
        help="label column as 0-based index or header name (default: last)",
    )
    cmp_parser.add_argument("--no-header", action="store_true")
    cmp_parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="recorded in the report for provenance only; evaluation is single-threaded",
    )
    cmp_parser.set_defaults(func=cmd_compare)

    check_parser = sub.add_parser("oracle-check", help="run the exact self-check suite")
    check_parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    check_parser.set_defaults(func=cmd_oracle_check)
    return parser


def cmd_compare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        learner_a = parse_learner(args.learner_a)
        learner_b = parse_learner(args.learner_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        data = load_csv(args.data, label_column=args.label_col, has_header=not args.no_header)
    except (OSError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    g = args.g
    if g < 1 or g + 1 > data.n:
        print(f"error: need 1 <= g <= n - 1, got g={g} with n={data.n}", file=sys.stderr)
        return EXIT_INPUT
    if data.n < 2 * g + 2:
        print(
            f"error: the variance estimate requires n >= 2g + 2 = {2 * g + 2}, "
            f"but the sample has n = {data.n}",
            file=sys.stderr,
        )
        return EXIT_SAMPLE_TOO_SMALL

    if args.digits is not None and args.iterations is not None:
        print("warning: both --digits and --iterations given; --digits wins", file=sys.stderr)
    if args.digits is not None:
        try:
            draws = iterations_for_digits(args.digits)
        except (ValueError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    elif args.iterations is not None:
        draws = args.iterations
        if not 1 <= draws <= MAX_DRAWS:
            print(f"error: --iterations must lie in 1..10^18, got {draws}", file=sys.stderr)
            return EXIT_INPUT
    else:
        draws = iterations_for_digits(2)

    if not ALPHA_FLOOR < args.alpha < 1.0:
        print(
            f"error: --alpha must lie strictly between 2^-53 and 1, got {args.alpha}",
            file=sys.stderr,
        )
        return EXIT_INPUT

    threads = args.threads
    if threads < 1:
        print(f"error: --threads must be an integer >= 1, got '{threads}'", file=sys.stderr)
        return EXIT_INPUT

    mode = COMPLETE if args.complete else INCOMPLETE
    if mode == COMPLETE:
        try:
            check_complete_budget(data.n, g + 1)
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    config = EstimatorConfig(draws=draws, seed=args.seed, mode=mode)
    evaluator = KernelEvaluator(ComparisonKernel(learner_a, learner_b, g=g), data)

    print(
        f"n={data.n} g={g} mode={mode} budget={draws} seed={args.seed} threads={threads}",
        file=sys.stderr,
    )
    try:
        # Recorded, so runtime warnings (the degeneracy warning) print as one
        # line each and not at all when the run ends in an error.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            print("estimating the error difference ...", file=sys.stderr)
            delta_hat = estimate_delta(evaluator, config)
            print("estimating its variance ...", file=sys.stderr)
            variance = estimate_variance(evaluator, config)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    except OverflowError as exc:
        print(
            f"error: feature values too large for the learners' arithmetic: {exc}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except MemoryError:
        print(
            f"error: out of memory at a budget of {draws} draws per statistic; "
            f"lower --digits or --iterations",
            file=sys.stderr,
        )
        return EXIT_INPUT

    variance_mode = UNBIASED if args.variance_mode == "unbiased" else PLUGIN_ASYMPTOTIC
    result = test_error_difference(delta_hat, variance, alpha=args.alpha, mode=variance_mode)

    report = ComparisonReport(
        inputs={
            "data": args.data,
            "learner_a": args.learner_a,
            "learner_b": args.learner_b,
            "g": g,
            "n": data.n,
            "mode": mode,
            "budgets": {"delta": draws, "kappa": draws, "theta2": draws},
            "seed": args.seed,
            "variance_mode": variance_mode,
            "alpha": args.alpha,
            "label_column": args.label_col,
            "has_header": not args.no_header,
            "threads": threads,
        },
        outputs={
            "delta_hat": delta_hat,
            "kappa_hats": list(variance.kappa_hats),
            "theta2_hat": variance.theta2_hat,
            "v_hat": variance.v_hat,
            "v_hat_nonpositive": variance.nonpositive,
            "degeneracy_warning": variance.degeneracy_warning,
            "u_n": result.u_n,
            "variance_mode_used": result.mode_used,
            "statistic": result.statistic,
            "p_value": result.p_value,
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
            "reject": result.reject,
            "degenerate": result.degenerate,
        },
        provenance={
            "version": __version__,
            "rng": RNG_ALGORITHM,
            "threads": threads,
            "wall_time_s": time.perf_counter() - started,
        },
    )
    print(report.to_json())
    return EXIT_DEGENERATE if result.degenerate else EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.list:
        for scenario in builtin_scenarios():
            print(f"{scenario.name}: {scenario.description} (n={scenario.n})")
        return EXIT_OK
    results = run_checks()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.scenario}/{res.name}: residual={res.residual:.3e} "
            f"tol={CHECK_TOLERANCE:.1e}"
        )
        if not res.passed:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
