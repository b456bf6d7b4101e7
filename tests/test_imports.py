"""numpy is imported only where sampling needs it, and the oracle only by oracle-check.

Complete mode, oracle-check, --help and input checks that exit before
estimation never draw a random number, so they must run without loading
numpy. compare never uses the exhaustive oracle, so it must not load
ucompare.oracle either. Each case runs in a fresh interpreter, because this
test process already holds both through the test support code.
"""

import json
import os
import subprocess
import sys

import pytest

from ucompare.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs cli.main on the argv given as its second argument, or only imports
# the package when there is none, and prints the exit code and whether the
# module named by its first argument is loaded as the last line of stdout.
SCRIPT = """
import contextlib, io, json, sys
import ucompare
rc = None
if len(sys.argv) > 2:
    from ucompare import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(json.loads(sys.argv[2]))
        except SystemExit as exc:
            rc = exc.code
print(json.dumps({"rc": rc, sys.argv[1]: sys.argv[1] in sys.modules}))
"""


def run_fresh(argv=None, module="numpy"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", SCRIPT, module]
    if argv is not None:
        command.append(json.dumps(argv))
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture()
def eight_row_csv(tmp_path):
    path = tmp_path / "eight.csv"
    rows = [f"{float(i)},{y}" for i, y in enumerate([0, 1, 1, 0, 1, 0, 0, 1])]
    path.write_text("\n".join(["x1,y"] + rows) + "\n")
    return str(path)


def compare_argv(data, learner_a, *options):
    return [
        "compare",
        "--data",
        data,
        "--learner-a",
        learner_a,
        "--learner-b",
        "const:0",
        "--g",
        "2",
        *options,
    ]


def test_bare_import_leaves_numpy_unloaded():
    assert run_fresh() == {"rc": None, "numpy": False}


def test_help_leaves_numpy_unloaded():
    assert run_fresh(["--help"]) == {"rc": EXIT_OK, "numpy": False}


@pytest.mark.parametrize("options", [["--list"], []], ids=["list", "all-checks"])
def test_oracle_check_leaves_numpy_unloaded(options):
    assert run_fresh(["oracle-check", *options]) == {"rc": EXIT_OK, "numpy": False}


def test_complete_compare_leaves_numpy_unloaded(eight_row_csv):
    result = run_fresh(compare_argv(eight_row_csv, "knn:1", "--complete"))
    assert result == {"rc": EXIT_OK, "numpy": False}


def test_complete_compare_leaves_oracle_unloaded(eight_row_csv):
    result = run_fresh(compare_argv(eight_row_csv, "knn:1", "--complete"), "ucompare.oracle")
    assert result == {"rc": EXIT_OK, "ucompare.oracle": False}


def test_oracle_check_loads_oracle():
    # The check above would pass vacuously under a misspelt module name.
    assert run_fresh(["oracle-check", "--list"], "ucompare.oracle") == {
        "rc": EXIT_OK,
        "ucompare.oracle": True,
    }


def test_bad_learner_exit_leaves_numpy_unloaded(eight_row_csv):
    result = run_fresh(compare_argv(eight_row_csv, "forest:100", "--iterations", "3"))
    assert result == {"rc": EXIT_INPUT, "numpy": False}


def test_sampled_compare_loads_numpy(eight_row_csv):
    # The check above would pass vacuously if numpy never showed up in
    # sys.modules; a sampled run draws on numpy streams and must load it.
    result = run_fresh(compare_argv(eight_row_csv, "knn:1", "--iterations", "3"))
    assert result == {"rc": EXIT_DEGENERATE, "numpy": True}
