"""The traced benchmark run still works against the package as it is.

perfbench/trace_run.py patches package attributes by name and checks call
count identities, so renaming or deleting API it relies on breaks it without
failing any other test. Each workload's seed-0 report must also hash to the
recorded reference.
"""

import json
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
def test_traced_run_matches_reference(tmp_path, name):
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
        [
            sys.executable,
            os.path.join(PERFBENCH, "trace_run.py"),
            "--workload",
            name,
            "--data",
            data_path,
            "--spans",
            str(tmp_path / "spans.npz"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    expected = load_reference()[name]["0"]
    assert result["exit_code"] == expected["exit_code"]
    assert outputs_hash(result["report"]) == expected["outputs_sha256"]
