"""The one canonical JSON form, exercised on every artifact family.

Each schema-tagged family (sweep, tuning, drift, engine-perf, ledger,
replay) is built for real, written, reloaded and rejected under a
foreign schema through the same :mod:`repro.core.canonical` calls the
CLI uses.
"""

import json
from pathlib import Path

import pytest

from repro.core.canonical import dumps, load, round9, write

REPO_ROOT = Path(__file__).resolve().parents[2]
SWEEP_BASELINE = REPO_ROOT / "tests" / "golden" / "BENCH_sweep_baseline.json"


def _sweep():
    from repro.core import MeasurementConfig
    from repro.runner import (ResultCache, SweepConfig, build_artifact,
                              preset_grid, run_sweep)

    config = SweepConfig(mode="predict", use_cache=False,
                         measurement=MeasurementConfig(
                             iterations=1, warmup_iterations=0, runs=1))
    result = run_sweep(preset_grid("smoke").cells(), config,
                       ResultCache(enabled=False))
    return build_artifact(result, "smoke", config)


def _tuning():
    from repro.tuner import (DecisionEntry, DecisionRule, DecisionTable,
                             build_tuning_artifact)

    table = DecisionTable(
        entries={("sp2", "broadcast"): (
            DecisionEntry(min_p=0, rules=(
                DecisionRule(0, "binomial_broadcast"),
                DecisionRule(16384, "scatter_allgather_broadcast"))),)},
        defaults={("sp2", "broadcast"): "binomial_broadcast"})
    return build_tuning_artifact(table, flips=[], grid_name="unit",
                                 config=None)


def _drift():
    from repro.obs.drift import audit_artifact, build_drift_artifact
    from repro.runner import ARTIFACT_SCHEMA

    baseline = load(SWEEP_BASELINE, ARTIFACT_SCHEMA, "a sweep artifact")
    return build_drift_artifact(audit_artifact(baseline))


def _engine_perf():
    from repro.bench.perfsuite import build_perf_artifact, run_perf_suite

    return build_perf_artifact(run_perf_suite("smoke"), suite="smoke")


def _ledger():
    from repro.obs.ledger import build_ledger, discover_artifacts

    return build_ledger(discover_artifacts(
        [REPO_ROOT / "BENCH_drift.json", SWEEP_BASELINE]))


def _replay():
    from repro.faults import fault_preset
    from repro.obs.capture import capture_collective

    capture = capture_collective(
        "t3d", "broadcast", nbytes=4096, num_nodes=16, seed=7,
        faults=fault_preset("single-link-outage"))
    return capture.to_replay_frames()


#: (builder, schema the document carries, kind named on rejection)
FAMILIES = {
    "sweep": (_sweep, "repro-sweep/1", "a sweep artifact"),
    "tuning": (_tuning, "repro-tuning/1", "a tuning artifact"),
    "drift": (_drift, "repro-drift/1", "a drift artifact"),
    "engine-perf": (_engine_perf, "repro-engine-perf/1",
                    "an engine-perf artifact"),
    "ledger": (_ledger, "repro-ledger/1", "a ledger bundle"),
    "replay": (_replay, "repro-replay/1", "a replay document"),
}


def test_families_cover_every_schema_module():
    from repro.bench.perfsuite import PERF_SCHEMA
    from repro.obs.capture import REPLAY_SCHEMA
    from repro.obs.drift import DRIFT_SCHEMA
    from repro.obs.ledger import LEDGER_SCHEMA
    from repro.runner import ARTIFACT_SCHEMA
    from repro.tuner import TUNING_SCHEMA

    assert {schema for _, schema, _ in FAMILIES.values()} == {
        ARTIFACT_SCHEMA, TUNING_SCHEMA, DRIFT_SCHEMA, PERF_SCHEMA,
        LEDGER_SCHEMA, REPLAY_SCHEMA}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_write_load_round_trip_and_schema_gate(family, tmp_path):
    build, schema, kind = FAMILIES[family]
    document = build()
    assert document["schema"] == schema
    path = write(document, tmp_path / f"{family}.json")
    text = path.read_text("utf-8")
    # Canonical: sorted keys, indent 2, one final newline, and stable
    # under re-serialization.
    assert text == dumps(document)
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert dumps(json.loads(text)) == text
    assert load(path, schema, kind) == document
    if family == "ledger":
        from repro.obs.ledger import validate_ledger
        validate_ledger(load(path, schema, kind))
    foreign = "repro-drift/1" if family == "sweep" else "repro-sweep/1"
    path.write_text(json.dumps({"schema": foreign}), "utf-8")
    with pytest.raises(ValueError, match=f"is not {kind} "):
        load(path, schema, kind)


def test_load_rejects_untagged_json(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", "utf-8")
    with pytest.raises(ValueError, match="schema None"):
        load(path, "repro-sweep/1", "a sweep artifact")


def test_load_error_names_path_kind_and_both_schemas(tmp_path):
    path = tmp_path / "tuning.json"
    path.write_text('{"schema": "repro-sweep/1"}', "utf-8")
    with pytest.raises(ValueError) as excinfo:
        load(path, "repro-tuning/1", "a tuning artifact")
    assert str(excinfo.value) == (
        f"{path} is not a tuning artifact (schema 'repro-sweep/1', "
        "expected 'repro-tuning/1')")


def test_write_accepts_str_path_and_returns_path(tmp_path):
    target = str(tmp_path / "doc.json")
    path = write({"schema": "repro-sweep/1", "b": 1, "a": 2}, target)
    assert isinstance(path, Path) and str(path) == target
    assert path.read_text("utf-8") == (
        '{\n  "a": 2,\n  "b": 1,\n  "schema": "repro-sweep/1"\n}\n')
    assert load(target, "repro-sweep/1", "a sweep artifact")["a"] == 2


def test_dumps_sorts_keys_at_every_depth():
    assert dumps({"b": {"z": 1, "a": [2]}, "a": 0}) == (
        '{\n  "a": 0,\n  "b": {\n    "a": [\n      2\n    ],\n'
        '    "z": 1\n  }\n}\n')


def test_round9_keeps_nine_significant_digits():
    assert round9(1234.5678901234567) == 1234.56789
    assert round9(1.9000123456789012) == 1.90001235
    assert round9(0.0) == 0.0
    assert isinstance(round9(3), float)
