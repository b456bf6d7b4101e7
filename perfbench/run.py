"""End-to-end benchmark of `ucompare compare` on seeded synthetic workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sampled-small-g --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one after another
    python3 perfbench/run.py --record --seed 0 1 2        # re-record reference hashes

--trace 0 times untraced `ucompare compare` processes, one at a time, for
--seconds and reports the end-to-end metrics, adjusted for the host's speed
by an interleaved reference process (see REFERENCE_CODE). --trace 1 alternates untraced
processes with traced ones (perfbench/trace_run.py) and reports the
per-layer metrics. Every process's report is checked: the exit code, no
traceback, and the SHA-256 of its `outputs` object against
perfbench/reference.json (or, for a seed with no reference, against the
other processes of the same run). The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

# The CLI's documented successful exit codes: 0, or 3 when the variance
# estimate is degenerate (the report is still printed, no decision is made).
SUCCESS_CODES = (0, 3)
MIN_COMPARE_RUNS = 3
MIN_SETUP_RUNS = 8
PROCESS_TIMEOUT_S = 150
DEFAULT_BUDGET = 10**5  # per statistic, what `--digits 2` (the CLI default) asks for

SETUP_CODE = "import sys, ucompare; ucompare.load_csv(sys.argv[1])"

# Fixed stdlib-only work in a fresh interpreter, run next to every measured
# process. The host is shared: its speed drifts by 20-40% over tens of seconds
# to minutes, and the reference process slows with it. End-to-end times are
# reported as measured x REFERENCE_NOMINAL_S / (wall of the reference processes
# run just before and after), which cancels the drift while a change to
# ucompare still shows in full. The measured processes are kept to a few
# seconds each, so the references bracket them closely.
REFERENCE_CODE = """
import random
rng = random.Random(1)
rows = [tuple(rng.random() for _ in range(4)) for _ in range(64)]
total = 0.0
for i in range(6000):
    window = sorted(rows[(i * 7 + k) % 64] for k in range(12))
    seen = {row: sum((a - b) ** 2 for a, b in zip(row, window[0])) for row in window}
    total += min(seen.values())
"""
# A typical reference wall time on a 2-core Xeon (2.1 GHz) host; it only sets the scale.
REFERENCE_NOMINAL_S = 0.2


@dataclass
class Process:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """Pinned environment: the checkout's package, one thread everywhere."""
    env = {k: v for k, v in os.environ.items() if k not in ("UCOMPARE_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(cmd: list[str]) -> Process:
    """Run one process to completion; wall time is from spawn to reaped exit."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            wall_s=wall,
            exit_code=proc.returncode,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def outputs_hash(report_text: str) -> str:
    """SHA-256 of the report's `outputs` object, re-encoded compactly.

    Only `outputs` is hashed: `inputs.data` holds the temporary CSV path and
    `provenance` holds the wall time and thread count.
    """
    report = json.loads(report_text.strip().splitlines()[-1])
    text = json.dumps(report["outputs"], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


class Checker:
    """Counts attempted and failed processes and checks each report."""

    def __init__(self, workload: str, seed: int):
        entry = load_reference().get(workload, {}).get(str(seed))
        self.expected_code = None if entry is None else entry["exit_code"]
        self.expected_hash = None if entry is None else entry["outputs_sha256"]
        self.seen_hash: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_setup(self, proc: Process) -> bool:
        self.attempted += 1
        if proc.exit_code != 0:
            self.fail(f"set-up process exited {proc.exit_code}: {proc.stderr.strip()[-300:]}")
            return False
        return True

    def check_report(self, exit_code: int, report: str, stderr: str) -> bool:
        self.attempted += 1
        codes = SUCCESS_CODES if self.expected_code is None else (self.expected_code,)
        if exit_code not in codes:
            self.fail(f"exit code {exit_code}, expected one of {codes}: {stderr.strip()[-300:]}")
            return False
        if "Traceback" in stderr:
            self.fail(f"traceback on stderr: {stderr.strip()[-300:]}")
            return False
        try:
            digest = outputs_hash(report)
            degenerate = json.loads(report.strip().splitlines()[-1])["outputs"]["degenerate"]
        except (ValueError, KeyError, IndexError) as exc:
            self.fail(f"unreadable report ({exc!r}): {report[-300:]}")
            return False
        if degenerate != (exit_code == 3):
            self.fail(f"exit code {exit_code} disagrees with outputs.degenerate = {degenerate}")
            return False
        expected = self.expected_hash or self.seen_hash
        if expected is not None and digest != expected:
            self.fail(f"outputs hash {digest} differs from the expected {expected}")
            return False
        self.seen_hash = digest
        return True


def compare_cmd(workload, data_path: str) -> list[str]:
    return [sys.executable, "-m", "ucompare.cli"] + workload.argv(data_path)


def trace_cmd(workload, data_path: str, spans_path: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "trace_run.py"),
        "--workload", workload.name, "--data", data_path, "--spans", spans_path,
    ]


def print_metric(name: str, value: float, unit: str, samples: list[float] = ()) -> None:
    count = ""
    if len(samples) > 1:
        count = f"  (median of {len(samples)}, range {min(samples):.6g} to {max(samples):.6g})"
    print(f"  {name:<38} {value:>14.6g} {unit}{count}")


def reference_wall() -> float:
    proc = spawn([sys.executable, "-c", REFERENCE_CODE])
    if proc.exit_code != 0:
        raise RuntimeError(f"reference process exited {proc.exit_code}: {proc.stderr[-300:]}")
    return proc.wall_s


def measure_end_to_end(workload, data_path: str, seconds: float, checker: Checker) -> dict:
    """Alternate reference, set-up and compare processes for `seconds`.

    A set-up time is adjusted by the reference process just before it; a
    compare time by the mean of the references just before and after it.
    """
    walls, setups, rss, refs = [], [], [], [reference_wall()]

    def add_setup():
        setup = spawn([sys.executable, "-c", SETUP_CODE, data_path])
        if checker.check_setup(setup):
            setups.append((setup.wall_s, setup.wall_s * REFERENCE_NOMINAL_S / refs[-1]))
        return setup

    start = time.perf_counter()
    while True:
        setup = add_setup()
        proc = spawn(compare_cmd(workload, data_path))
        refs.append(reference_wall())
        if checker.check_report(proc.exit_code, proc.stdout, proc.stderr):
            speed = REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            walls.append((proc.wall_s, proc.wall_s * speed))
            rss.append(proc.peak_rss_mb)
        attempts = len(walls) + checker.failed
        # Start another process if it should end within half a process of
        # the deadline, so runs average about `seconds` whatever the workload.
        expected_next = proc.wall_s + setup.wall_s + refs[-1]
        overrun = time.perf_counter() - start + expected_next / 2 - seconds
        if attempts >= MIN_COMPARE_RUNS and (overrun > 0 or checker.failed):
            break
    while len(setups) < MIN_SETUP_RUNS and checker.failed == 0:
        add_setup()
        refs.append(reference_wall())
    if not walls or not setups:
        return {}
    adjusted_walls = [adjusted for _, adjusted in walls]
    adjusted_setups = [adjusted for _, adjusted in setups]
    wall_s, setup_s = median(adjusted_walls), median(adjusted_setups)
    nominal = workload.nominal_draws()
    print(
        f"  as measured: compare {median([raw for raw, _ in walls]):.4f} s, "
        f"set-up {median([raw for raw, _ in setups]):.4f} s, "
        f"reference {median(refs):.4f} s (nominal {REFERENCE_NOMINAL_S} s)"
    )
    return {
        "wall_s": (wall_s, "s", adjusted_walls),
        "draws_per_s": (nominal / (wall_s - setup_s), "1/s", [nominal / (w - setup_s) for w in adjusted_walls]),
        "setup_s": (setup_s, "s", adjusted_setups),
        "peak_rss_mb": (median(rss), "MB", rss),
    }


def span_calls(spans: dict) -> dict[str, int]:
    return {name: entry["calls"] for name, entry in spans.items()}


def layer_metrics(spans: dict, m: int) -> dict:
    """Per-layer numbers from one traced run's span summary."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(spans.get(name, {}).get("s", 0.0) for name in names)

    def self_s(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.split(".", 1)[0] == layer)

    fits = calls("learners.a.fit") + calls("learners.b.fit")
    phi0, phi, complement = calls("kernels.phi0"), calls("kernels.phi"), calls("kernels.phi_complement_total")
    return {
        "learners.fit.calls": (fits, "count"),
        "learners.predict.calls": (calls("learners.predict"), "count"),
        "learners.predict_batch.calls": (calls("learners.predict_batch"), "count"),
        "kernels.phi0.calls": (phi0, "count"),
        "kernels.phi.calls": (phi, "count"),
        "kernels.product.calls": (calls("kernels.product"), "count"),
        "kernels.phi_complement_total.calls": (complement, "count"),
        "designs.sample_ordered_subsets.calls": (calls("designs.sample_ordered_subsets"), "count"),
        "learners.a.fit.s": (total("learners.a.fit"), "s"),
        "learners.b.fit.s": (total("learners.b.fit"), "s"),
        "learners.predict.s": (total("learners.predict", "learners.predict_batch"), "s"),
        "learners.fit_share": (total("learners.a.fit", "learners.b.fit") / total("cli.main"), "ratio"),
        "kernels.self_s": (self_s("kernels"), "s"),
        "designs.self_s": (self_s("designs"), "s"),
        "estimators.estimate_delta.s": (total("estimators.estimate_delta"), "s"),
        "estimators.estimate_kappa.s": (total("estimators.estimate_kappa_c"), "s"),
        "estimators.estimate_theta2.s": (total("estimators.estimate_theta2"), "s"),
        "estimators.self_s": (self_s("estimators"), "s"),
        "dataset.load_csv.s": (total("dataset.load_csv"), "s"),
        "inference.test_error_difference.s": (total("inference.test_error_difference"), "s"),
        "report.to_json.s": (total("report.to_json"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.main_s": (total("cli.main"), "s"),
        # phi runs only on a phi0 miss, m times; each phi or complement total asks for two fits.
        "kernels.phi0_reuse_ratio": (1 - (phi / m) / phi0, "ratio"),
        "kernels.fit_reuse_ratio": (1 - fits / (2 * (phi + complement)), "ratio"),
    }


def measure_layers(workload, data_path: str, seconds: float, checker: Checker) -> dict:
    walls, traced_walls, runs = [], [], []
    spans_path = os.path.join(WORK, f"spans-{workload.name}.npz")
    start = time.perf_counter()
    while True:
        proc = spawn(compare_cmd(workload, data_path))
        if checker.check_report(proc.exit_code, proc.stdout, proc.stderr):
            walls.append(proc.wall_s)
        traced = spawn(trace_cmd(workload, data_path, spans_path))
        result = None
        if traced.exit_code == 0 and "Traceback" not in traced.stderr:
            try:
                result = json.loads(traced.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
        if result is None:
            checker.attempted += 1
            checker.fail(f"traced run exited {traced.exit_code}: {traced.stderr.strip()[-300:]}")
        elif checker.check_report(result["exit_code"], result["report"], traced.stderr):
            if result["problems"]:
                checker.fail("count identities broken: " + "; ".join(result["problems"]))
            elif runs and span_calls(result["spans"]) != span_calls(runs[0]["spans"]):
                checker.fail("call counts differ between traced runs of the same inputs")
            else:
                runs.append(result)
                traced_walls.append(traced.wall_s)
        expected_next = proc.wall_s + traced.wall_s
        if checker.failed or time.perf_counter() - start + expected_next / 2 > seconds:
            break
    if not runs or not walls:
        return {}
    per_run = [layer_metrics(r["spans"], workload.m) for r in runs]
    metrics = {
        name: (median(values), unit, values)
        for name, (_, unit) in per_run[0].items()
        for values in [[m[name][0] for m in per_run]]
    }
    wall_s, traced_wall = median(walls), median(traced_walls)
    metrics["designs.draws"] = (runs[0]["draws"], "count", [])
    metrics["trace.wall_s"] = (traced_wall, "s", traced_walls)
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s", [])
    metrics["trace.spans"] = (runs[0]["span_count"], "count", [])
    print(f"  spans of the last traced run: {os.path.relpath(spans_path, ROOT)}")
    return metrics


def environment() -> str:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or commit
        except OSError:
            pass
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} commit={commit} threads=1 (one process at a time)"
    )


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import SAMPLED, write_dataset

    checker = Checker(workload.name, seed)
    budget = "complete enumeration" if workload.draws is None else f"{workload.draws} draws per statistic"
    print(
        f"workload {workload.name} seed {seed}: n={workload.n} d={workload.d} g={workload.g} "
        f"{workload.learner_a} vs {workload.learner_b}, {workload.mode}, {budget}; "
        f"nominal draws {workload.nominal_draws()}"
    )
    print(f"  why: {workload.why}")
    print(f"  env: {environment()}")
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        data_path = os.path.join(tmp, f"{workload.name}.csv")
        write_dataset(workload, seed, data_path)
        # Untimed warm-up: compiles bytecode and fills the file cache once.
        spawn([sys.executable, "-c", SETUP_CODE, data_path])
        if trace:
            metrics = measure_layers(workload, data_path, seconds, checker)
        else:
            metrics = measure_end_to_end(workload, data_path, seconds, checker)

    for name, (value, unit, samples) in metrics.items():
        print_metric(name, value, unit, samples)
    failed_frac = checker.failed / checker.attempted
    print_metric("failed_frac", failed_frac, "ratio")
    print(f"  processes attempted {checker.attempted}, failed {checker.failed}")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    if checker.expected_hash is None:
        print(f"  outputs sha256 (no stored reference for seed {seed}): {checker.seen_hash}")
    else:
        print(f"  outputs sha256 matches the reference for seed {seed}: {checker.expected_hash}")
    if not trace and metrics and workload.mode == SAMPLED:
        nominal = workload.nominal_draws(DEFAULT_BUDGET)
        projected = metrics["setup_s"][0] + nominal / metrics["draws_per_s"][0]
        caveat = (
            " (does not hold here: cache reuse grows with the number of draws)"
            if workload.name == "sampled-duplicates" else ""
        )
        print(
            f"  information, not a metric: linear projection of --digits 2 "
            f"({nominal} nominal draws) = {projected:.0f} s{caveat}"
        )
    return {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def record(seeds: list[int]) -> None:
    """Write each workload's exit code and outputs hash for the given seeds."""
    from workloads import WORKLOADS, write_dataset

    reference = load_reference() if os.path.exists(REFERENCE) else {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS.values():
            for seed in seeds:
                data_path = os.path.join(tmp, f"{workload.name}-{seed}.csv")
                write_dataset(workload, seed, data_path)
                proc = spawn(compare_cmd(workload, data_path))
                if proc.exit_code not in SUCCESS_CODES:
                    raise SystemExit(f"{workload.name} seed {seed}: exit {proc.exit_code}\n{proc.stderr}")
                entry = {"exit_code": proc.exit_code, "outputs_sha256": outputs_hash(proc.stdout)}
                reference.setdefault(workload.name, {})[str(seed)] = entry
                print(workload.name, seed, entry, flush=True)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark `ucompare compare` end to end.")
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference.json for --seed")
    args = parser.parse_args()
    # SystemExit unwinds through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "ucompare", "__init__.py")):
        print(f"error: no ucompare package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    if args.record:
        record(args.seed)
        return 0
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        for seed in args.seed:
            results[name, seed] = run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace))
            sys.stdout.flush()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{seed}/{metric}": entry
                for (name, seed), r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
