"""Tests for the canonical run ledger (repro.obs.ledger)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.ledger import (
    ARTIFACT_FAMILIES,
    LEDGER_SCHEMA,
    build_ledger,
    classify_document,
    discover_artifacts,
    document_digest,
    scrub_volatile_deep,
    summarize_document,
    validate_ledger,
)
from repro.core.canonical import dumps

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")

#: The fixed, checked-in inputs of the golden bundle.
GOLDEN_INPUTS = [
    REPO_ROOT / "BENCH_drift.json",
    REPO_ROOT / "BENCH_engine.json",
    REPO_ROOT / "tests/golden/BENCH_sweep_baseline.json",
    REPO_ROOT / "tests/golden/BENCH_tuning_smoke.json",
]


def _golden_ledger():
    return build_ledger(discover_artifacts(GOLDEN_INPUTS))


def test_classify_by_schema():
    for family, schema in ARTIFACT_FAMILIES.items():
        if schema is not None:
            assert classify_document({"schema": schema}) == family


def test_classify_trace_and_chaos_by_shape():
    assert classify_document({"traceEvents": [], "otherData": {}}) \
        == "trace"
    chaos = {"machine": "t3d", "op": "broadcast", "plan": "lossy",
             "nbytes": 64, "nodes": 8, "iterations": 1, "seed": 0,
             "clean_us": 1.0, "faulty_us": 2.0, "penalty_us": 1.0,
             "counters": {}, "metrics": {}}
    assert classify_document(chaos) == "chaos"


def test_classify_rejects_ledgers_and_junk():
    # No ledger-in-ledger: a bundle never indexes another bundle.
    assert classify_document({"schema": LEDGER_SCHEMA,
                              "entries": []}) is None
    assert classify_document({"schema": "unknown/9"}) is None
    assert classify_document({"random": "dict"}) is None
    assert classify_document([1, 2, 3]) is None
    assert classify_document("text") is None


def test_scrub_volatile_deep_reaches_every_level():
    payload = {
        "wall_s": 1.5,
        "keep": {"hostname": "x", "nested": [{"timestamp": 1,
                                              "value": 2}]},
    }
    assert scrub_volatile_deep(payload) == {
        "keep": {"nested": [{"value": 2}]}}


def test_document_digest_ignores_volatile_fields():
    doc = {"schema": "repro-drift/1", "pass": True}
    noisy = dict(doc, wall_s=9.9, hostname="elsewhere")
    assert document_digest(doc) == document_digest(noisy)
    assert document_digest(doc) != document_digest(
        dict(doc, extra=1))


def test_every_family_summarizes():
    chaos = {"machine": "t3d", "op": "broadcast", "plan": "lossy",
             "nbytes": 64, "nodes": 8, "iterations": 1, "seed": 0,
             "clean_us": 1.0, "faulty_us": 2.5, "penalty_us": 1.5,
             "counters": {}, "metrics": {}}
    trace = {"traceEvents": [
        {"ph": "M", "name": "process_name"},
        {"ph": "X", "cat": "message", "name": "msg 0->1"},
        {"ph": "X", "cat": "link", "name": "link x"},
    ], "otherData": {"spans": 2, "dropped": 0}}
    replay = {"schema": "repro-replay/1", "machine": "t3d",
              "op": "broadcast", "nbytes": 64, "num_nodes": 4,
              "frames": [{"id": 1}], "faults": "lossy",
              "critical_path": {"total_us": 1.0}}
    ledger = build_ledger([("chaos.json", "chaos", chaos),
                           ("replay.json", "replay", replay),
                           ("trace.json", "trace", trace)])
    validate_ledger(ledger)
    summaries = {e["family"]: e["summary"] for e in ledger["entries"]}
    assert summaries["chaos"]["penalty_us"] == 1.5
    assert summaries["trace"]["events"] == 3
    assert summaries["trace"]["categories"] == ["link", "message"]
    assert summaries["replay"]["frames"] == 1
    assert summaries["replay"]["has_critical_path"] is True


def test_summarize_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown artifact family"):
        summarize_document("nope", {})


def test_golden_ledger(golden):
    golden.check("BENCH_ledger.json", _golden_ledger())


def test_ledger_is_byte_stable_across_builds():
    assert dumps(_golden_ledger()) == dumps(_golden_ledger())


def test_ledger_is_byte_stable_across_processes():
    snippet = (
        "from repro.core.canonical import dumps\n"
        "from repro.obs.ledger import build_ledger, discover_artifacts\n"
        f"inputs = {[str(p) for p in GOLDEN_INPUTS]!r}\n"
        "print(dumps(build_ledger(discover_artifacts(inputs))), end='')\n"
    )
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC,
                 "PYTHONHASHSEED": "random"})
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == dumps(_golden_ledger())


def test_bundle_digest_tracks_content():
    base = _golden_ledger()
    fewer = build_ledger(discover_artifacts(GOLDEN_INPUTS[:2]))
    assert base["bundle_digest"] != fewer["bundle_digest"]
    assert base["families"] == {"drift": 1, "engine-perf": 1,
                                "sweep": 1, "tuning": 1}


def test_validate_accepts_built_ledger():
    validate_ledger(_golden_ledger())


def test_validate_rejects_wrong_schema():
    with pytest.raises(ValueError, match="not a ledger"):
        validate_ledger({"schema": "repro-sweep/1"})


def test_validate_rejects_tampered_digest():
    ledger = _golden_ledger()
    ledger["entries"][0]["digest"] = "0" * 64
    with pytest.raises(ValueError, match="bundle_digest"):
        validate_ledger(ledger)


def test_validate_rejects_unsorted_and_duplicate_paths():
    ledger = _golden_ledger()
    ledger["entries"].reverse()
    with pytest.raises(ValueError, match="not sorted"):
        validate_ledger(ledger)
    ledger = _golden_ledger()
    ledger["entries"].append(dict(ledger["entries"][-1]))
    with pytest.raises(ValueError):
        validate_ledger(ledger)


def test_validate_rejects_family_census_mismatch():
    ledger = _golden_ledger()
    ledger["families"]["sweep"] = 7
    with pytest.raises(ValueError, match="census"):
        validate_ledger(ledger)


def test_build_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown artifact family"):
        build_ledger([("x.json", "mystery", {})])


def test_discover_scans_directories_and_skips_junk(tmp_path):
    (tmp_path / "drift.json").write_text(json.dumps(
        {"schema": "repro-drift/1", "pass": True, "breaches": 0,
         "cells": [], "summary": {}, "source": {}}))
    (tmp_path / "notes.json").write_text('{"just": "notes"}')
    (tmp_path / "broken.json").write_text("{nope")
    hidden = tmp_path / ".cache"
    hidden.mkdir()
    (hidden / "sweep.json").write_text(json.dumps(
        {"schema": "repro-sweep/1", "cells": []}))
    nested = tmp_path / "runs"
    nested.mkdir()
    (nested / "sweep.json").write_text(json.dumps(
        {"schema": "repro-sweep/1", "cells": []}))
    found = discover_artifacts([tmp_path])
    assert [(path, family) for path, family, _ in found] == [
        ("drift.json", "drift"), ("runs/sweep.json", "sweep")]


def test_discover_excludes_output_directory(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "BENCH_ledger.json").write_text(json.dumps(
        {"schema": "repro-drift/1", "pass": True, "breaches": 0,
         "cells": [], "summary": {}, "source": {}}))
    assert discover_artifacts([tmp_path], exclude=[site]) == []


def test_discover_rejects_explicit_unclassifiable_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"just": "notes"}')
    with pytest.raises(ValueError, match="not a recognised artifact"):
        discover_artifacts([path])
    with pytest.raises(ValueError, match="neither a file nor"):
        discover_artifacts([tmp_path / "missing"])
