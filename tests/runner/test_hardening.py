"""Tests for sweep-runner fault tolerance: poison-cell quarantine,
shard requeueing, worker watchdog timeouts, and artifact handling of
failed cells."""

import pytest

from repro.core import MeasurementConfig
from repro.core.canonical import dumps
from repro.runner import (
    ResultCache,
    SweepCell,
    SweepConfig,
    build_artifact,
    run_sweep,
)

FAST = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)

GOOD = (SweepCell("t3d", "broadcast", 16, 2),
        SweepCell("t3d", "reduce", 16, 2))
#: An unknown collective: the measurement raises MpiError inside the
#: worker, which must quarantine the cell, not sink the sweep.
POISON = SweepCell("t3d", "bogus-op", 16, 2)


def test_poison_cell_is_quarantined_inline():
    config = SweepConfig(mode="sim", workers=1, measurement=FAST,
                         use_cache=False)
    result = run_sweep(GOOD + (POISON,), config,
                       ResultCache(enabled=False))
    assert set(result.quarantined) == {POISON}
    assert "bogus-op" in result.quarantined[POISON]
    assert set(result.results) == set(GOOD)
    assert result.evaluated == len(GOOD)
    assert "1 quarantined" in result.summary()


def test_failed_shard_requeues_and_isolates_the_poison_cell():
    # One worker with a timeout forces the pool path and puts all
    # three cells in one shard; the shard fails as a whole, is
    # requeued cell by cell, and only the poison cell is quarantined.
    config = SweepConfig(mode="sim", workers=1, measurement=FAST,
                         use_cache=False, cell_timeout_s=300.0)
    result = run_sweep(GOOD + (POISON,), config,
                       ResultCache(enabled=False))
    assert set(result.quarantined) == {POISON}
    assert set(result.results) == set(GOOD)
    assert result.requeued == len(GOOD) + 1


def test_watchdog_timeout_quarantines_instead_of_hanging():
    # A sub-microsecond budget expires before any worker can answer,
    # which is indistinguishable from a crashed/stuck worker.
    config = SweepConfig(mode="sim", workers=2, measurement=FAST,
                         use_cache=False, cell_timeout_s=1e-6)
    result = run_sweep(GOOD[:1], config, ResultCache(enabled=False))
    assert set(result.quarantined) == {GOOD[0]}
    assert "timed out" in result.quarantined[GOOD[0]]
    assert result.results == {}


def test_quarantined_cells_are_never_cached(tmp_path):
    config = SweepConfig(mode="sim", workers=1, measurement=FAST,
                         cache_dir=str(tmp_path))
    cache = ResultCache(tmp_path)
    run_sweep(GOOD + (POISON,), config, cache)
    assert cache.stats.writes == len(GOOD)
    # A later sweep hits the good cells and retries the poison one.
    again = run_sweep(GOOD + (POISON,), config, ResultCache(tmp_path))
    assert again.cache_hits == len(GOOD)
    assert set(again.quarantined) == {POISON}


def test_artifact_reports_quarantined_cells_separately():
    config = SweepConfig(mode="sim", workers=1, measurement=FAST,
                         use_cache=False)
    result = run_sweep(GOOD + (POISON,), config,
                       ResultCache(enabled=False))
    payload = build_artifact(result, "adhoc", config)
    assert [c["op"] for c in payload["cells"]] == \
        [cell.op for cell in GOOD]
    assert len(payload["quarantined"]) == 1
    assert payload["quarantined"][0]["op"] == "bogus-op"
    assert "reason" in payload["quarantined"][0]


def test_clean_artifacts_have_no_quarantine_section():
    # Byte-stability: a clean run's artifact must not grow a new key.
    config = SweepConfig(mode="sim", workers=1, measurement=FAST,
                         use_cache=False)
    result = run_sweep(GOOD, config, ResultCache(enabled=False))
    payload = build_artifact(result, "adhoc", config)
    assert "quarantined" not in payload
    assert "quarantined" not in dumps(payload)


def test_cell_timeout_validation():
    with pytest.raises(ValueError, match="cell_timeout_s"):
        SweepConfig(cell_timeout_s=0.0)
    with pytest.raises(ValueError, match="cell_timeout_s"):
        SweepConfig(cell_timeout_s=-1.0)
