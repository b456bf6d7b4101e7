"""Each workload's untraced seed-0 run matches the recorded reference.

perfbench/trace_run.py wraps the learners without loo_errors, so the traced
run checks the fit-and-predict path only. This runs `python -m ucompare.cli`
as the benchmark does, with the built-in learners, and compares its exit
code and outputs hash with perfbench/reference.json.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from run import load_reference, outputs_hash  # noqa: E402
from workloads import WORKLOADS, write_dataset  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_matches_reference(tmp_path, name):
    data_path = str(tmp_path / f"{name}.csv")
    write_dataset(WORKLOADS[name], 0, data_path)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ucompare.cli", *WORKLOADS[name].argv(data_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    expected = load_reference()[name]["0"]
    assert proc.returncode == expected["exit_code"], proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert outputs_hash(proc.stdout) == expected["outputs_sha256"]
