"""Tests for the engine perf suite and BENCH_engine.json gate."""

import copy

import pytest

from repro.bench.perfsuite import (
    PERF_SCHEMA,
    build_perf_artifact,
    check_perf_artifact,
    perf_workload_names,
    run_perf_suite,
    run_workload,
    work_section_text,
)
from repro.bench import document_diff_paths
from repro.core.canonical import load


def _smoke_artifact():
    return build_perf_artifact(run_perf_suite("smoke"), suite="smoke")


def test_workload_names_per_suite():
    smoke = perf_workload_names("smoke")
    default = perf_workload_names("default")
    assert smoke
    assert set(smoke) < set(default)
    assert all(name.startswith("micro/") for name in smoke)
    assert any(name.startswith("collective/") for name in default)
    # All three machines are represented at p=64 and p=256.
    for machine in ("sp2", "t3d", "paragon"):
        assert f"collective/{machine}-broadcast-p64" in default
        assert f"collective/{machine}-broadcast-p256" in default


def test_suite_carries_no_store_workload_or_counters():
    from repro.obs import WORK_COUNTERS

    assert "micro/store-pipeline" not in perf_workload_names("default")
    assert not {"store_puts", "store_gets"} & set(WORK_COUNTERS)
    run = run_workload("micro/engine-timeouts")
    assert set(run.work) == set(WORK_COUNTERS)


def test_unknown_suite_and_workload_rejected():
    with pytest.raises(ValueError):
        perf_workload_names("nope")
    with pytest.raises(ValueError):
        run_workload("micro/does-not-exist")


def test_run_workload_returns_work_and_clock():
    run = run_workload("micro/engine-timeouts")
    assert run.workload == "micro/engine-timeouts"
    assert run.work["events_fired"] > 400000
    assert run.sim_time_us == 400000.0
    assert run.wall_s > 0
    assert run.events_per_sec > 0


def test_work_section_byte_identical_across_runs():
    first, second = _smoke_artifact(), _smoke_artifact()
    assert work_section_text(first) == work_section_text(second)
    assert first["work"] == second["work"]


def test_runs_differ_only_in_throughput_paths():
    """Two runs of the same suite must diverge only under the
    designated volatile section (wall-clock throughput)."""
    first, second = _smoke_artifact(), _smoke_artifact()
    for path in document_diff_paths(first, second):
        assert path.startswith("throughput/"), \
            f"nondeterministic path outside throughput/: {path}"


def test_check_passes_against_own_run():
    artifact = _smoke_artifact()
    result = check_perf_artifact(_smoke_artifact(), artifact)
    assert result.passed()
    assert result.work_mismatches == []
    assert "PASS" in result.format()


def test_check_fails_on_counter_change():
    baseline = _smoke_artifact()
    mutated = copy.deepcopy(baseline)
    cell = mutated["work"]["micro/engine-timeouts"]
    cell["counters"]["events_fired"] += 1
    result = check_perf_artifact(mutated, baseline)
    assert not result.passed()
    assert any("events_fired" in message
               for message in result.work_mismatches)
    assert "FAIL" in result.format()


def test_check_fails_on_sim_time_change():
    baseline = _smoke_artifact()
    mutated = copy.deepcopy(baseline)
    mutated["work"]["micro/engine-timeouts"]["sim_time_us"] += 1.0
    result = check_perf_artifact(mutated, baseline)
    assert not result.passed()
    assert any("sim_time_us" in message
               for message in result.work_mismatches)


def test_check_fails_on_missing_or_extra_workload():
    baseline = _smoke_artifact()
    missing = copy.deepcopy(baseline)
    del missing["work"]["micro/ptp-t3d-p2"]
    result = check_perf_artifact(missing, baseline)
    assert any("missing from current run" in message
               for message in result.work_mismatches)
    extra = copy.deepcopy(baseline)
    extra["work"]["micro/new-kernel"] = {"counters": {}, "sim_time_us": 0}
    result = check_perf_artifact(extra, baseline)
    assert any("not in baseline" in message
               for message in result.work_mismatches)


def test_check_fails_on_throughput_regression():
    baseline = _smoke_artifact()
    current = copy.deepcopy(baseline)
    total = baseline["throughput"]["total"]
    total["events_per_sec"] = current["throughput"]["total"][
        "events_per_sec"] * 100.0
    result = check_perf_artifact(current, baseline, min_ratio=0.33)
    assert result.work_mismatches == []
    assert not result.throughput_ok
    assert not result.passed()
    assert "REGRESSION" in result.format()


def test_check_rejects_bad_min_ratio():
    artifact = _smoke_artifact()
    with pytest.raises(ValueError):
        check_perf_artifact(artifact, artifact, min_ratio=0.0)


def test_profiled_suite_has_identical_work():
    from repro.obs import HostProfile

    plain = _smoke_artifact()
    with HostProfile() as profile:
        profiled = build_perf_artifact(run_perf_suite("smoke"),
                                       suite="smoke")
    assert work_section_text(plain) == work_section_text(profiled)
    assert "sim/resources.py" in [row[0] for row in profile.modules()]


def test_checked_in_baseline_matches_fresh_run():
    """The repo-root BENCH_engine.json reproduces from the live
    engine: every work counter byte-identical."""
    from pathlib import Path

    baseline_path = Path(__file__).resolve().parents[2] / \
        "BENCH_engine.json"
    baseline = load(baseline_path, PERF_SCHEMA, "an engine-perf artifact")
    current = build_perf_artifact(run_perf_suite("default"),
                                  suite="default")
    result = check_perf_artifact(current, baseline, min_ratio=1e-9)
    assert result.work_mismatches == [], \
        "\n".join(result.work_mismatches)
    assert work_section_text(current) == work_section_text(baseline)
