"""Drift auditor: Table 3 comparison, tolerances, byte stability."""

import copy
from pathlib import Path

import pytest

from repro.core.canonical import dumps, load
from repro.obs.drift import (
    DriftTolerance,
    audit_artifact,
    build_drift_artifact,
    format_drift_trend,
)
from repro.runner import ARTIFACT_SCHEMA

REPO_ROOT = Path(__file__).parents[2]
BASELINE = REPO_ROOT / "tests" / "golden" / "BENCH_sweep_baseline.json"
TREND = REPO_ROOT / "BENCH_drift.json"


@pytest.fixture(scope="module")
def baseline():
    return load(BASELINE, ARTIFACT_SCHEMA, "a sweep artifact")


def test_baseline_audit_passes(baseline):
    report = audit_artifact(baseline)
    assert report.cells, "the smoke baseline must produce audit cells"
    assert report.passed()
    assert not report.skipped
    # Model mode evaluates the same Table 3 expressions the auditor
    # compares against; only vectorized-vs-scalar libm noise remains.
    assert max(abs(cell.rel_error) for cell in report.cells) < 1e-9
    for cell in report.cells:
        assert cell.model_us > 0
        assert cell.within


def test_report_format_table(baseline):
    text = audit_artifact(baseline).format()
    assert "drift audit vs Table 3" in text
    assert "grid=smoke" in text and "mode=model" in text
    assert "sp2/broadcast" in text and "t3d/barrier" in text
    assert text.endswith("-> PASS")


def test_drift_artifact_byte_stable(baseline):
    first = dumps(build_drift_artifact(audit_artifact(baseline)))
    second = dumps(build_drift_artifact(audit_artifact(baseline)))
    assert first == second


def test_checked_in_trend_artifact_regenerates_identically(baseline):
    """Regenerating BENCH_drift.json from the golden sweep baseline
    must reproduce the checked-in file byte for byte."""
    regenerated = dumps(build_drift_artifact(audit_artifact(baseline)))
    assert TREND.exists(), \
        "BENCH_drift.json trend artifact missing from the repo root"
    assert TREND.read_text("utf-8") == regenerated


def test_breach_detected_and_reported(baseline):
    doctored = copy.deepcopy(baseline)
    cell = doctored["cells"][0]
    cell["result"]["time_us"] = cell["result"]["time_us"] * 2.0
    report = audit_artifact(doctored)
    assert not report.passed()
    assert len(report.breaches) == 1
    breach = report.breaches[0]
    assert breach.rel_error == pytest.approx(1.0)
    text = report.format()
    assert "BREACH" in text and text.endswith("-> FAIL")
    payload = build_drift_artifact(report)
    assert payload["pass"] is False
    assert payload["breaches"] == 1
    assert payload["worst_cells"][0]["cell"] == breach.key()


def test_per_op_tolerance_override(baseline):
    doctored = copy.deepcopy(baseline)
    for cell in doctored["cells"]:
        if cell["op"] == "barrier":
            cell["result"]["time_us"] *= 1.5
    strict = audit_artifact(doctored)
    assert not strict.passed()
    lax = audit_artifact(doctored, DriftTolerance(
        max_rel_error=0.25, per_op={"barrier": 0.6}))
    assert lax.passed()
    assert lax.tolerance.limit_for("barrier") == 0.6
    assert lax.tolerance.limit_for("broadcast") == 0.25


def test_unknown_op_is_skipped_not_judged(baseline):
    doctored = copy.deepcopy(baseline)
    doctored["cells"].append({
        "machine": "sp2", "op": "alltoallv", "nbytes": 64, "p": 4,
        "result": {"time_us": 123.0},
    })
    report = audit_artifact(doctored)
    assert report.passed()
    assert len(report.skipped) == 1
    key, reason = report.skipped[0]
    assert key == "sp2/alltoallv/64/4"
    assert "no Table 3 model" in reason
    assert "skipped" in report.format()


def test_tolerance_validation():
    with pytest.raises(ValueError, match="max_rel_error"):
        DriftTolerance(max_rel_error=0.0)
    with pytest.raises(ValueError, match="barrier"):
        DriftTolerance(per_op={"barrier": -1.0})


def test_trend_sparklines_over_generations(baseline):
    first = build_drift_artifact(audit_artifact(baseline))
    worse = copy.deepcopy(first)
    for stats in worse["summary"].values():
        stats["max_abs_rel_error"] = 0.5
        stats["breaches"] = 2
    worse["breaches"] = 2 * len(worse["summary"])
    worse["pass"] = False
    text = format_drift_trend([first, worse])
    assert "drift trend over 2 generation(s)" in text
    assert "verdicts: PF" in text
    # The degraded generation renders as a taller block than the first.
    line = next(l for l in text.splitlines()
                if l.startswith("sp2/broadcast"))
    assert "\u2581\u2588" in line  # flat start, full-height spike
    assert "50.000%" in line


def test_trend_single_generation(baseline):
    payload = build_drift_artifact(audit_artifact(baseline))
    text = format_drift_trend([payload])
    assert "1 generation(s)" in text
    assert "verdicts: P" in text


def test_trend_rejects_empty_history():
    with pytest.raises(ValueError, match="no drift generations"):
        format_drift_trend([])
