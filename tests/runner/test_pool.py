"""Tests for the sweep engine: caching, modes, and invalidation."""

import dataclasses

import pytest

from repro.core import (
    MeasurementConfig,
    measure_collective,
    paper_expression,
    predict_collective,
)
from repro.runner import (
    ResultCache,
    SweepCell,
    SweepConfig,
    preset_grid,
    run_sweep,
)

FAST = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)


def test_warm_cache_skips_every_unchanged_cell(tmp_path):
    cells = preset_grid("smoke").cells()
    config = SweepConfig(mode="sim", measurement=FAST,
                         cache_dir=str(tmp_path))
    cold = run_sweep(cells, config, ResultCache(tmp_path))
    assert (cold.evaluated, cold.cache_hits) == (len(cells), 0)
    warm = run_sweep(cells, config, ResultCache(tmp_path))
    assert (warm.evaluated, warm.cache_hits) == (0, len(cells))
    assert warm.results == cold.results
    assert warm.fingerprints == cold.fingerprints


def test_protocol_change_invalidates_cache(tmp_path):
    cells = preset_grid("smoke").cells()[:3]
    run_sweep(cells, SweepConfig(mode="sim", measurement=FAST),
              ResultCache(tmp_path))
    longer = dataclasses.replace(FAST, iterations=2)
    again = run_sweep(cells,
                      SweepConfig(mode="sim", measurement=longer),
                      ResultCache(tmp_path))
    assert again.cache_hits == 0
    assert again.evaluated == len(cells)


def test_sim_result_matches_direct_measurement(tmp_path):
    cell = SweepCell("t3d", "broadcast", 1024, 4)
    result = run_sweep([cell], SweepConfig(mode="sim",
                                           measurement=FAST),
                       ResultCache(tmp_path))
    sample = measure_collective("t3d", "broadcast", 1024, 4, FAST)
    assert result.results[cell]["time_us"] == sample.time_us
    assert result.results[cell]["run_times_us"] == \
        list(sample.run_times_us)


def test_predict_mode_matches_predict_collective():
    cells = preset_grid("smoke").cells()
    result = run_sweep(cells, SweepConfig(mode="predict",
                                          use_cache=False),
                       ResultCache(enabled=False))
    for cell in cells:
        expected = predict_collective(cell.machine, cell.op, cell.nbytes,
                                      cell.p)
        assert result.results[cell] == {"time_us": expected}


def test_predict_mode_runs_on_a_worker_pool():
    cells = preset_grid("smoke").cells()[:6]
    serial = run_sweep(cells, SweepConfig(mode="predict",
                                          use_cache=False),
                       ResultCache(enabled=False))
    pooled = run_sweep(cells, SweepConfig(mode="predict", workers=2,
                                          use_cache=False),
                       ResultCache(enabled=False))
    assert pooled.results == serial.results


def test_model_mode_matches_paper_expressions():
    cells = preset_grid("smoke").cells()
    result = run_sweep(cells, SweepConfig(mode="model",
                                          use_cache=False),
                       ResultCache(enabled=False))
    for cell in cells:
        expected = paper_expression(cell.machine, cell.op) \
            .evaluate(cell.nbytes, cell.p)
        assert result.results[cell]["time_us"] == \
            pytest.approx(expected, rel=1e-12)


def test_input_order_and_duplicates_do_not_matter():
    cells = list(preset_grid("smoke").cells()[:4])
    config = SweepConfig(mode="predict", use_cache=False)
    forward = run_sweep(cells, config, ResultCache(enabled=False))
    backward = run_sweep(list(reversed(cells)) + cells, config,
                         ResultCache(enabled=False))
    assert forward.cells == backward.cells
    assert forward.results == backward.results


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="unknown sweep mode"):
        SweepConfig(mode="guess")
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(workers=0)


def test_summary_mentions_cache_and_cell_counts(tmp_path):
    cells = preset_grid("smoke").cells()[:2]
    result = run_sweep(cells, SweepConfig(mode="predict",
                                          cache_dir=str(tmp_path)),
                       ResultCache(tmp_path))
    assert "2 cells" in result.summary()
    assert "cache hits" in result.summary()
