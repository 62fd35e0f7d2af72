"""Per-cell algorithm overrides: fingerprints, validation, artifacts."""

import dataclasses

import pytest

from repro.core import QUICK_CONFIG, measure_collective, predict_collective
from repro.machines import get_machine_spec
from repro.runner import (
    ResultCache,
    SweepCell,
    SweepConfig,
    build_artifact,
    cell_fingerprint,
    run_sweep,
    validate_cell_algorithms,
)

SP2 = get_machine_spec("sp2")
FAST = dataclasses.replace(QUICK_CONFIG, iterations=1,
                           warmup_iterations=0, runs=1)


def test_override_matching_default_shares_the_cache_key():
    # A tune cell racing the incumbent hashes identically to the plain
    # sweep cell, so tunes and sweeps share cache entries.
    plain = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG)
    incumbent = cell_fingerprint(SP2, "broadcast", 1024, 8,
                                 QUICK_CONFIG,
                                 algorithm="binomial_broadcast")
    challenger = cell_fingerprint(SP2, "broadcast", 1024, 8,
                                  QUICK_CONFIG,
                                  algorithm="scatter_allgather_broadcast")
    assert incumbent == plain
    assert challenger != plain


def test_cell_key_mentions_algorithm_only_when_set():
    plain = SweepCell("sp2", "broadcast", 1024, 8)
    overridden = SweepCell("sp2", "broadcast", 1024, 8,
                           algorithm="scatter_allgather_broadcast")
    assert "scatter_allgather_broadcast" not in plain.key()
    assert overridden.key().endswith("/scatter_allgather_broadcast")


def test_override_simulates_the_requested_algorithm():
    cell = SweepCell("sp2", "broadcast", 65536, 8,
                     algorithm="scatter_allgather_broadcast")
    result = run_sweep([cell], SweepConfig(mode="sim", measurement=FAST,
                                           use_cache=False),
                       ResultCache(enabled=False))
    spec = dataclasses.replace(
        SP2, algorithms={**dict(SP2.algorithms),
                         "broadcast": "scatter_allgather_broadcast"})
    sample = measure_collective(spec, "broadcast", 65536, 8, FAST)
    assert result.results[cell]["time_us"] == sample.time_us
    default = measure_collective("sp2", "broadcast", 65536, 8, FAST)
    assert sample.time_us != default.time_us


def test_unknown_algorithm_rejected_up_front():
    cells = [SweepCell("sp2", "broadcast", 1024, 8,
                       algorithm="warp_drive_broadcast")]
    with pytest.raises(ValueError) as err:
        validate_cell_algorithms(cells, mode="sim")
    message = str(err.value)
    assert "warp_drive_broadcast" in message
    assert "known algorithms" in message
    # The known-name list is sorted, so the error is deterministic.
    names = message.split("known algorithms: ")[1].split(", ")
    assert names == sorted(names)


def test_overrides_require_simulation_mode():
    cells = [SweepCell("sp2", "broadcast", 1024, 8,
                       algorithm="scatter_allgather_broadcast")]
    with pytest.raises(ValueError, match="simulated mode"):
        validate_cell_algorithms(cells, mode="model")
    with pytest.raises(ValueError, match="breakdown"):
        validate_cell_algorithms(cells, mode="sim", breakdown=True)
    validate_cell_algorithms(cells, mode="sim")  # fine
    validate_cell_algorithms(cells, mode="predict")  # fine


def test_predict_mode_honours_an_algorithm_override():
    plain = SweepCell("sp2", "broadcast", 65536, 8)
    raced = SweepCell("sp2", "broadcast", 65536, 8,
                      algorithm="scatter_allgather_broadcast")
    config = SweepConfig(mode="predict", use_cache=False)
    result = run_sweep([plain, raced], config, ResultCache(enabled=False))
    overridden = dataclasses.replace(
        SP2, algorithms={**dict(SP2.algorithms),
                          "broadcast": "scatter_allgather_broadcast"})
    assert result.results[raced] == {
        "time_us": predict_collective(overridden, "broadcast", 65536, 8)}
    assert result.results[raced] != result.results[plain]
    assert result.fingerprints[raced] != result.fingerprints[plain]


def test_run_sweep_validates_before_evaluating():
    cells = [SweepCell("sp2", "broadcast", 1024, 8,
                       algorithm="warp_drive_broadcast")]
    with pytest.raises(ValueError, match="warp_drive_broadcast"):
        run_sweep(cells, SweepConfig(mode="sim", measurement=FAST,
                                     use_cache=False),
                  ResultCache(enabled=False))


def test_artifact_cells_carry_algorithm_only_when_overridden():
    config = SweepConfig(mode="sim", measurement=FAST, use_cache=False)
    plain_cell = SweepCell("sp2", "broadcast", 1024, 4)
    tuned_cell = SweepCell("sp2", "broadcast", 1024, 4,
                           algorithm="scatter_allgather_broadcast")
    result = run_sweep([plain_cell, tuned_cell], config,
                       ResultCache(enabled=False))
    artifact = build_artifact(result, "overrides-test", config)
    rows = {row.get("algorithm", ""): row for row in artifact["cells"]}
    # The plain row has no "algorithm" key at all — pre-override
    # artifacts stay byte-identical.
    assert set(rows) == {"", "scatter_allgather_broadcast"}
    assert "algorithm" not in rows[""]
