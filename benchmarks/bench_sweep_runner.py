"""Bench: the parallel sweep runner and its result cache.

Regenerates a deterministic sub-grid of the paper's Figure 3 sweep
through ``repro.runner`` and asserts the properties the regression
layer depends on: byte-stable artifacts, bit-identical parallel
results, and a warm cache that skips every unchanged cell.
"""

from repro.core.canonical import dumps
from repro.runner import (
    ResultCache,
    SweepConfig,
    build_artifact,
    diff_artifacts,
    preset_grid,
    run_sweep,
)


def _sub_fig3(sweep_subgrid):
    return sweep_subgrid(preset_grid("fig3").cells(), fraction=0.04)


def test_sweep_cold_then_warm_cache(benchmark, single_shot,
                                    sweep_subgrid, sweep_fast_config,
                                    tmp_path):
    cells = _sub_fig3(sweep_subgrid)
    config = SweepConfig(mode="sim", workers=2,
                         measurement=sweep_fast_config,
                         cache_dir=str(tmp_path))
    cold = single_shot(benchmark, run_sweep, cells, config,
                       ResultCache(tmp_path))
    warm = run_sweep(cells, config, ResultCache(tmp_path))
    print(f"cold: {cold.summary()}")
    print(f"warm: {warm.summary()}")
    assert cold.evaluated == len(cells)
    assert (warm.evaluated, warm.cache_hits) == (0, len(cells))
    cold_doc = dumps(build_artifact(cold, "fig3-sub", config))
    warm_doc = dumps(build_artifact(warm, "fig3-sub", config))
    assert cold_doc == warm_doc


def test_sweep_parallel_matches_serial(benchmark, single_shot,
                                       sweep_subgrid,
                                       sweep_fast_config):
    cells = _sub_fig3(sweep_subgrid)
    parallel_config = SweepConfig(mode="sim", workers=2,
                                  measurement=sweep_fast_config,
                                  use_cache=False)
    serial_config = SweepConfig(mode="sim", workers=1,
                                measurement=sweep_fast_config,
                                use_cache=False)
    parallel = single_shot(benchmark, run_sweep, cells,
                           parallel_config, ResultCache(enabled=False))
    serial = run_sweep(cells, serial_config, ResultCache(enabled=False))
    diff = diff_artifacts(
        build_artifact(serial, "fig3-sub", serial_config),
        build_artifact(parallel, "fig3-sub", parallel_config))
    assert diff.clean(), diff.format()


def test_sweep_predict_mode_simulates_one_warm_call(benchmark, single_shot,
                                                   sweep_subgrid):
    cells = _sub_fig3(sweep_subgrid)
    config = SweepConfig(mode="predict", use_cache=False)
    result = single_shot(benchmark, run_sweep, cells, config,
                         ResultCache(enabled=False))
    print(f"predict: {result.summary()}")
    assert result.evaluated == len(cells)
    assert all(r["time_us"] > 0 for r in result.results.values())
