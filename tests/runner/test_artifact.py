"""Tests for sweep artifacts and the baseline diff gate."""

import copy

import pytest

from repro.core import MeasurementConfig
from repro.runner import (
    ARTIFACT_SCHEMA,
    ResultCache,
    SweepConfig,
    build_artifact,
    diff_artifacts,
    preset_grid,
    run_sweep,
)
from repro.core.canonical import dumps

FAST = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)


def _artifact(mode="predict"):
    config = SweepConfig(mode=mode, measurement=FAST, use_cache=False)
    result = run_sweep(preset_grid("smoke").cells(), config,
                       ResultCache(enabled=False))
    return build_artifact(result, "smoke", config)


def test_artifact_shape():
    artifact = _artifact()
    assert artifact["schema"] == ARTIFACT_SCHEMA
    assert artifact["grid"] == "smoke"
    assert artifact["mode"] == "predict"
    assert artifact["config"] is None  # one warm call: no protocol knobs
    assert len(artifact["cells"]) == \
        len(preset_grid("smoke").cells())


def test_sim_mode_artifact_embeds_protocol():
    config = SweepConfig(mode="sim", measurement=FAST, use_cache=False)
    cells = preset_grid("smoke").cells()[:2]
    result = run_sweep(cells, config, ResultCache(enabled=False))
    artifact = build_artifact(result, "smoke", config)
    assert artifact["config"]["iterations"] == 1
    assert artifact["cells"][0]["result"]["run_times_us"]


def test_dumps_is_byte_stable():
    assert dumps(_artifact()) == dumps(_artifact())


def test_diff_identical_is_clean():
    artifact = _artifact()
    diff = diff_artifacts(artifact, copy.deepcopy(artifact))
    assert diff.clean()
    assert "identical" in diff.format()
    assert diff.compared == len(artifact["cells"])


def test_diff_reports_changed_cell_with_relative_error():
    baseline = _artifact()
    current = copy.deepcopy(baseline)
    current["cells"][0]["result"]["time_us"] *= 1.10
    diff = diff_artifacts(baseline, current)
    assert not diff.clean()
    assert len(diff.changed) == 1
    key, base, new, rel = diff.changed[0]
    assert rel == pytest.approx(0.10)
    assert "!" in diff.format()
    # A generous tolerance accepts the same drift.
    assert diff_artifacts(baseline, current, rtol=0.2).clean()


def test_diff_reports_added_and_removed_cells():
    baseline = _artifact()
    current = copy.deepcopy(baseline)
    dropped = current["cells"].pop(0)
    diff = diff_artifacts(baseline, current)
    assert len(diff.removed) == 1
    assert diff.removed[0][0] == dropped["machine"]
    assert "only in baseline" in diff.format()
    reverse = diff_artifacts(current, baseline)
    assert len(reverse.added) == 1


def test_diff_flags_metadata_changes():
    baseline = _artifact()
    current = copy.deepcopy(baseline)
    current["mode"] = "sim"
    diff = diff_artifacts(baseline, current)
    assert not diff.clean()
    assert any("mode" in item for item in diff.metadata)


def test_scrub_volatile_strips_wall_clock_fields():
    from repro.runner import VOLATILE_RESULT_FIELDS, scrub_volatile

    result = {"time_us": 42.0, "elapsed_s": 1.23, "host": "ci-runner",
              "timestamp": "2026-08-08T12:00:00", "run_times_us": [42.0]}
    scrubbed = scrub_volatile(result)
    assert scrubbed == {"time_us": 42.0, "run_times_us": [42.0]}
    assert "elapsed_s" in VOLATILE_RESULT_FIELDS


def test_build_artifact_scrubs_volatile_result_fields():
    """A cached result written by older tooling may carry wall-clock
    fields; they must never reach the byte-compared artifact."""
    config = SweepConfig(mode="predict", measurement=FAST,
                         use_cache=False)
    result = run_sweep(preset_grid("smoke").cells(), config,
                       ResultCache(enabled=False))
    tainted_cell = result.cells[0]
    result.results[tainted_cell] = {
        **result.results[tainted_cell],
        "elapsed_s": 9.99, "hostname": "somewhere",
    }
    artifact = build_artifact(result, "smoke", config)
    for cell in artifact["cells"]:
        assert "elapsed_s" not in cell["result"]
        assert "hostname" not in cell["result"]


def test_two_sweep_runs_are_byte_identical():
    """The sweep artifact designates *no* volatile fields: two runs of
    the same grid must serialize byte for byte."""
    from repro.bench import document_diff_paths

    first, second = _artifact(), _artifact()
    assert document_diff_paths(first, second) == []
    assert dumps(first) == dumps(second)
