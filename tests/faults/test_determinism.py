"""Properties: faulty sweeps are bit-reproducible, and a fault-free
plan is timing-identical to running with no plan at all."""

import dataclasses

from repro.core import MeasurementConfig
from repro.core.canonical import dumps
from repro.faults import FAULT_FREE, fault_preset
from repro.runner import (
    ResultCache,
    SweepConfig,
    build_artifact,
    preset_grid,
    run_sweep,
)

FAST = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)


def _sweep_artifact(measurement, workers=1):
    grid = preset_grid("smoke")
    config = SweepConfig(mode="sim", workers=workers,
                         measurement=measurement, use_cache=False)
    result = run_sweep(grid.cells(), config, ResultCache(enabled=False))
    assert not result.quarantined
    return build_artifact(result, grid.name, config)


def test_same_seed_and_plan_give_byte_identical_artifacts():
    measurement = dataclasses.replace(FAST,
                                      faults=fault_preset("lossy"))
    first = dumps(_sweep_artifact(measurement))
    second = dumps(_sweep_artifact(measurement))
    assert first == second


def test_worker_count_does_not_change_faulty_artifacts():
    measurement = dataclasses.replace(FAST,
                                      faults=fault_preset("chaos"))
    serial = dumps(_sweep_artifact(measurement, workers=1))
    parallel = dumps(_sweep_artifact(measurement, workers=2))
    assert serial == parallel


def test_fault_free_plan_matches_no_plan_on_the_smoke_grid():
    without = _sweep_artifact(FAST)
    with_plan = _sweep_artifact(
        dataclasses.replace(FAST, faults=FAULT_FREE))
    # Fingerprints differ (the plan is part of the cache key), but
    # every measured timing must be bit-identical.
    assert with_plan["cells"] == [
        dict(cell, fingerprint=other["fingerprint"])
        for cell, other in zip(without["cells"], with_plan["cells"])
    ]
    assert [c["result"] for c in with_plan["cells"]] == \
        [c["result"] for c in without["cells"]]


def test_different_plans_give_different_fingerprints():
    lossy = _sweep_artifact(
        dataclasses.replace(FAST, faults=fault_preset("lossy")))
    chaos = _sweep_artifact(
        dataclasses.replace(FAST, faults=fault_preset("chaos")))
    lossy_keys = [c["fingerprint"] for c in lossy["cells"]]
    chaos_keys = [c["fingerprint"] for c in chaos["cells"]]
    assert set(lossy_keys).isdisjoint(chaos_keys)
