"""Golden-snapshot regression for the tuner.

The fitted decision table for the three paper machines must be
byte-stable: across runs in one process, across separate processes,
and against the checked-in golden snapshot (regenerate with
``pytest --update-golden`` after an intentional model change).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.canonical import dumps
from repro.mpi.collectives import algorithm_names
from repro.tuner import run_tune

MACHINES = ("paragon", "sp2", "t3d")

_SUBPROCESS_SCRIPT = """\
import sys
from repro.core.canonical import dumps
from repro.tuner import run_tune

result = run_tune({machines!r}, grid="smoke", use_cache=False)
sys.stdout.write(dumps(result.artifact()))
"""


@pytest.fixture(scope="module")
def tune_result():
    return run_tune(MACHINES, grid="smoke", use_cache=False)


def test_tuning_artifact_matches_golden(tune_result, golden):
    golden.check("BENCH_tuning_smoke.json", tune_result.artifact())


def test_tuning_is_byte_stable_across_runs(tune_result):
    again = run_tune(MACHINES, grid="smoke", use_cache=False)
    assert dumps(again.artifact()) == \
        dumps(tune_result.artifact())


def test_tuning_is_byte_stable_across_processes(tune_result):
    src = Path(__file__).resolve().parents[2] / "src"
    script = _SUBPROCESS_SCRIPT.format(machines=MACHINES)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONHASHSEED": "random"},
        check=True)
    assert proc.stdout == dumps(tune_result.artifact())


def test_every_table_entry_names_a_registered_algorithm(tune_result):
    tune_result.table.validate()
    registered = set(algorithm_names())
    assert set(tune_result.table.algorithms_used()) <= registered
    for (_, _), default in tune_result.table.defaults.items():
        assert default in registered
    for flip in tune_result.flips:
        assert flip["algorithm"] in registered
        assert flip["default_algorithm"] in registered


def test_tuning_flips_cells_to_faster_zoo_algorithms(tune_result):
    # Acceptance: the tuned table moves at least one cell off the
    # paper's fixed choice, and only ever to a strictly faster one.
    assert tune_result.flips
    for flip in tune_result.flips:
        assert flip["time_us"] < flip["default_time_us"]
        assert flip["speedup"] > 1.0
    assert not tune_result.quarantined
