"""The paper's artifacts are sweep grids evaluated by the runner."""

import collections
import subprocess
import sys

import pytest

import repro.runner.pool as pool
from repro.bench import CampaignError, figure4, headline_checks
from repro.bench.figures import FAST_CONFIG, campaign_grid, campaign_times
from repro.core import PAPER_MACHINE_SIZES, QUICK_CONFIG, \
    CollectiveSample, MeasurementConfig
from repro.runner import GRID_PRESETS, SweepCell

MINIMAL = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)


def test_headline_simulates_each_cell_once(monkeypatch):
    # 15 claims over 31 distinct cells; the 64-KB total exchange at
    # p=64 backs up to three claims per machine.
    calls = collections.Counter()
    real = pool.measure_collective

    def spy(machine, op, nbytes, p, config):
        calls[(machine, op, nbytes, p)] += 1
        return real(machine, op, nbytes, p, config)

    monkeypatch.setattr(pool, "measure_collective", spy)
    checks = headline_checks(MINIMAL)
    assert len(checks) == 15
    assert len(calls) == 31
    assert set(calls.values()) == {1}


def test_fast_swaps_only_the_papers_axes():
    fig1 = campaign_grid(GRID_PRESETS["fig1"], fast=True)
    assert fig1.machine_sizes == (2, 8, 32)
    assert fig1.message_sizes == GRID_PRESETS["fig1"].message_sizes
    fig2 = campaign_grid(GRID_PRESETS["fig2"], fast=True)
    assert fig2.machine_sizes == (32,)
    assert fig2.message_sizes == (4, 1024, 65536)
    full = GRID_PRESETS["full"]
    assert campaign_grid(full) is full
    assert full.machine_sizes == PAPER_MACHINE_SIZES


def test_fast_protocol_is_the_default_only_under_fast(monkeypatch):
    seen = []

    def record(machine, op, nbytes, p, config):
        seen.append(config)
        raise RuntimeError("stop")

    monkeypatch.setattr(pool, "measure_collective", record)
    cell = SweepCell("sp2", "broadcast", 4, 2)
    for fast in (True, False):
        with pytest.raises(CampaignError):
            campaign_times([cell], fast=fast)
    assert seen == [FAST_CONFIG, QUICK_CONFIG]


def test_failed_cell_raises_naming_the_cell(monkeypatch):
    def broken(machine, op, nbytes, p, config):
        if (machine, op) == ("paragon", "scan"):
            raise ValueError("boom")
        return CollectiveSample(op, machine, nbytes, p, 1.0, (1.0,), 1.0,
                                1.0, 1.0)

    monkeypatch.setattr(pool, "measure_collective", broken)
    with pytest.raises(CampaignError,
                       match=r"cell paragon/scan/4/32 failed: "
                             r"ValueError\('boom'\)"):
        figure4()


@pytest.mark.parametrize("module", ["repro.runner", "repro.tuner"])
def test_runner_and_tuner_do_not_load_the_bench_harness(module):
    code = (f"import sys, {module}; "
            f"sys.exit('repro.bench' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
