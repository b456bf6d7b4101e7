"""Traced run of one workload: `ucompare.cli.main` in-process, layer by layer.

Wrappers from this file replace the module attributes the compare path calls
through (the CLI's imported names, the estimators' imported names, the
evaluator's methods, each fitted predictor), so the package itself is not
edited. Every wrapped call becomes a span with name, start, end and parent;
spans stay in memory and are written to an .npz file when the run ends.

Usage (from the root of a checkout, with src on PYTHONPATH):

    python3 perfbench/trace_run.py --workload NAME --data CSV --spans OUT.npz

Prints one JSON line: exit code, outputs hash, per-span call counts, total
and self times, the number of draws, and any broken count identity.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import time
from array import array

import numpy as np

from workloads import COMPLETE, WORKLOADS, Workload


class Tracer:
    """In-memory span recorder with per-name call counts, total and self time.

    A span's self time is its duration minus the time covered by its direct
    children, so self times of all spans add up to the root span's duration.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self._stack: list[list] = []  # open spans: [index, time covered by children]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span named `name`."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(math.nan)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[idx] = end
                duration = end - start
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class _TracedPredictor:
    """Fitted predictor whose entry points are spans; calls it makes to itself are not."""

    __slots__ = ("predict", "predict_batch")

    def __init__(self, inner, tracer: Tracer):
        self.predict = tracer.wrap("learners.predict", inner.predict)
        self.predict_batch = tracer.wrap("learners.predict_batch", inner.predict_batch)


class _TracedLearner:
    def __init__(self, inner, span: str, tracer: Tracer):
        self._fit = tracer.wrap(span, inner.fit)
        self._tracer = tracer

    def fit(self, learning_set):
        return _TracedPredictor(self._fit(learning_set), self._tracer)


def install(tracer: Tracer, workload: Workload, draws: list[int]) -> None:
    """Put span wrappers at every attribute the compare path calls through."""
    from ucompare import cli, estimators, report

    tracer.patch(cli, "load_csv", "dataset.load_csv")
    tracer.patch(cli, "estimate_delta", "estimators.estimate_delta")
    tracer.patch(cli, "estimate_variance", "estimators.estimate_variance")
    tracer.patch(estimators, "estimate_kappa_c", "estimators.estimate_kappa_c")
    tracer.patch(estimators, "estimate_theta2", "estimators.estimate_theta2")
    tracer.patch(estimators, "complete_u_statistic", "estimators.complete_u_statistic")
    tracer.patch(estimators, "make_stream", "designs.make_stream")
    tracer.patch(estimators, "hypergeometric_weights", "designs.hypergeometric_weights")
    tracer.patch(cli, "test_error_difference", "inference.test_error_difference")
    tracer.patch(report.ComparisonReport, "to_json", "report.to_json")

    sample = estimators.sample_ordered_subsets

    def counted_sample(*args, **kwargs):
        result = sample(*args, **kwargs)
        draws.append(len(result))
        return result

    estimators.sample_ordered_subsets = tracer.wrap("designs.sample_ordered_subsets", counted_sample)

    parse = tracer.wrap("learners.parse_learner", cli.parse_learner)

    def traced_parse_learner(identifier):
        role = "a" if identifier == workload.learner_a else "b"
        return _TracedLearner(parse(identifier), f"learners.{role}.fit", tracer)

    cli.parse_learner = traced_parse_learner

    evaluator_class = cli.KernelEvaluator

    def traced_evaluator(*args, **kwargs):
        evaluator = evaluator_class(*args, **kwargs)
        for method in ("phi0", "phi", "phi_complement_total", "product"):
            tracer.patch(evaluator, method, f"kernels.{method}")
        return evaluator

    cli.KernelEvaluator = traced_evaluator


def identity_problems(workload: Workload, calls: dict[str, int], draws: int) -> list[str]:
    """Count identities the compare path must satisfy; a break means a missed wrapper."""
    n, m = workload.n, workload.m
    expected = {
        "cli.main": 1,
        "dataset.load_csv": 1,
        "learners.parse_learner": 2,
        "estimators.estimate_delta": 1,
        "estimators.estimate_variance": 1,
        "estimators.estimate_kappa_c": m,
        "estimators.estimate_theta2": 1,
        "designs.hypergeometric_weights": 1,
        "inference.test_error_difference": 1,
        "report.to_json": 1,
    }
    if workload.mode == COMPLETE:
        # Delta visits every m-subset once; each overlap-c subset of size
        # 2m - c is split into C(2m-c, c) * C(2m-2c, m-c) window pairs, two
        # phi0 requests each (c = 0 is theta2).
        pairs = sum(
            math.comb(n, 2 * m - c) * math.comb(2 * m - c, c) * math.comb(2 * m - 2 * c, m - c)
            for c in range(m + 1)
        )
        expected.update({
            "estimators.complete_u_statistic": m + 2,
            "designs.sample_ordered_subsets": 0,
            "kernels.product": 0,
            "kernels.phi_complement_total": 0,
            "kernels.phi0": math.comb(n, m) + 2 * pairs,
        })
        expected_draws = 0
    else:
        # product asks phi0 for both windows, except at full overlap c = m.
        budget = workload.draws
        expected.update({
            "estimators.complete_u_statistic": 0,
            "designs.sample_ordered_subsets": m + 2,
            "kernels.product": m * budget + budget,
            "kernels.phi0": (2 * m + 1) * budget,
            "kernels.phi_complement_total": budget,
        })
        expected_draws = workload.nominal_draws()
    problems = [
        f"{name}: {calls.get(name, 0)} calls, expected {count}"
        for name, count in expected.items()
        if calls.get(name, 0) != count
    ]
    if draws != expected_draws:
        problems.append(f"designs.draws: {draws}, expected {expected_draws}")
    phi = calls.get("kernels.phi", 0)
    if phi % m:
        problems.append(f"kernels.phi: {phi} calls is not a multiple of m = {m}")
    fits_a, fits_b = calls.get("learners.a.fit", 0), calls.get("learners.b.fit", 0)
    if fits_a != fits_b or not 0 < fits_a <= phi + calls.get("kernels.phi_complement_total", 0):
        problems.append(f"learner fits a={fits_a}, b={fits_b} do not pair up with kernel requests")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--spans", required=True, help="output .npz file for the spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    from ucompare import cli

    tracer = Tracer()
    draws: list[int] = []
    install(tracer, workload, draws)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        exit_code = tracer.wrap("cli.main", cli.main)(workload.argv(args.data))
    spans = tracer.summary()
    calls = {name: entry["calls"] for name, entry in spans.items()}
    problems = identity_problems(workload, calls, sum(draws))
    if tracer.open_spans:
        problems.append(f"{tracer.open_spans} spans left open")
    tracer.write(args.spans)
    print(json.dumps({
        "exit_code": exit_code,
        "report": report.getvalue(),
        "spans": spans,
        "span_count": len(tracer.span_start),
        "draws": sum(draws),
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
