"""Golden regression layer: snapshots of the closed-form outputs.

Any change to the Table 3 transcription, the timing-expression
evaluator, or the analytic cost model shows up here as a reviewable
JSON diff instead of a silent drift; so does any change to the
simulated ``--fast`` campaign (Figures 1-5, the Table 3 fits and a
fault curve).  Regenerate intentionally with ``pytest --update-golden``.

All values are rounded to 9 significant digits before snapshotting so
the goldens survive last-ulp libm differences across platforms while
still catching any real (model-level) change.
"""

import pytest

from repro.bench import (
    CampaignError,
    degradation_curves,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table3,
)
from repro.core import (
    PAPER_MACHINE_SIZES,
    STARTUP_PROBE_BYTES,
    AnalyticModel,
    machine_sizes_for,
    table3_grid,
)
from repro.core.canonical import load, round9
from repro.faults import fault_preset
from repro.machines import get_machine_spec
from repro.runner import ARTIFACT_SCHEMA, preset_grid

TABLE3_SIZES = (4, 64, 1024, 16384, 65536)
TABLE3_NODES = (2, 4, 8, 16, 32, 64, 128)


def test_table3_expression_outputs_golden(golden):
    """Table 3's 21 expressions evaluated over the paper grid."""
    grids = table3_grid(TABLE3_SIZES, TABLE3_NODES)
    payload = {}
    for (machine, op), grid in sorted(grids.items()):
        series = {}
        for i, p in enumerate(TABLE3_NODES):
            series[str(p)] = {str(m): round9(grid[i, j])
                              for j, m in enumerate(TABLE3_SIZES)}
        payload[f"{machine}/{op}"] = series
    golden.check("table3_expressions.json", payload)


def _analytic_curves(ops, sizes):
    """op/machine -> p -> m -> predicted us, over the paper's sizes."""
    payload = {}
    for op in ops:
        for machine in ("sp2", "t3d", "paragon"):
            model = AnalyticModel(get_machine_spec(machine))
            series = {}
            for p in machine_sizes_for(machine, PAPER_MACHINE_SIZES):
                times = model.predict_batch(op, sizes, p)
                series[str(p)] = {str(m): round9(t)
                                  for m, t in zip(sizes, times)}
            payload[f"{op}/{machine}"] = series
    return payload


def test_fig1_curve_points_golden(golden):
    """Figure 1's startup-latency curves via the analytic model."""
    ops = ("broadcast", "alltoall", "scatter", "gather", "scan",
           "reduce")
    golden.check("fig1_analytic_curves.json",
                 _analytic_curves(ops, (STARTUP_PROBE_BYTES,)))


def test_fig3_curve_points_golden(golden):
    """Figure 3's short/long machine-size curves (plus the barrier)."""
    ops = ("broadcast", "alltoall", "scatter", "gather", "scan",
           "reduce")
    payload = _analytic_curves(ops, (16, 65536))
    payload.update(_analytic_curves(("barrier",), (0,)))
    golden.check("fig3_analytic_curves.json", payload)


def test_sweep_baseline_matches_model_mode():
    """The checked-in sweep baseline reproduces from the live model.

    ``tests/golden/BENCH_sweep_baseline.json`` is what ``repro-bench
    diff`` gates against; this test regenerates the same smoke grid in
    ``model`` mode and requires a clean diff and the same cell
    fingerprints, so neither the baseline's times nor its cache keys
    can drift from the code that claims to reproduce it.
    """
    from pathlib import Path

    from repro.runner import (
        ResultCache,
        SweepConfig,
        build_artifact,
        diff_artifacts,
        run_sweep,
    )

    baseline_path = Path(__file__).parent / "BENCH_sweep_baseline.json"
    config = SweepConfig(mode="model", use_cache=False)
    result = run_sweep(preset_grid("smoke").cells(), config,
                       ResultCache(enabled=False))
    regenerated = build_artifact(result, "smoke", config)
    baseline = load(baseline_path, ARTIFACT_SCHEMA, "a sweep artifact")
    diff = diff_artifacts(baseline, regenerated, rtol=1e-9)
    assert diff.clean(), diff.format()
    # The diff compares times only; a spec change that leaves every
    # time alone still changes each cell's cache key.
    assert _fingerprints(regenerated) == _fingerprints(baseline)


def _fingerprints(artifact):
    return {(c["machine"], c["op"], c["nbytes"], c["p"], c.get("algorithm")):
            c["fingerprint"] for c in artifact["cells"]}


def _series(data):
    return {"/".join(map(str, key)): {str(x): round9(value)
                                      for x, value in points.items()}
            for key, points in data.series.items()}


def _term(term):
    return {"form": term.form, "coef": round9(term.coef),
            "const": round9(term.const)}


def test_campaign_fast_golden(golden):
    """The simulated ``--fast`` campaign, pinned point by point.

    The fault curve runs at the coarse sizes the single-link outage
    leaves deliverable on the T3D; its p=2 point is the next test.
    """
    payload = {}
    for build in (figure1, figure2, figure3, figure4, figure5):
        data = build(fast=True)
        payload[data.figure_id] = _series(data)
    payload["Table 3"] = {
        f"{machine}/{op}": {"startup": _term(row.fitted.startup),
                            "per_byte": _term(row.fitted.per_byte)}
        for (machine, op), row in table3(fast=True).items()}
    payload["Degradation"] = _series(degradation_curves(
        "t3d", "broadcast", fault_preset("single-link-outage"),
        node_counts=(8, 32)))
    golden.check("campaign_fast.json", payload)


def test_undeliverable_campaign_point_names_its_cell():
    """On two T3D nodes the outage cuts the only link from 0 to 1: the
    fast fault curve fails on that cell rather than dropping it."""
    with pytest.raises(CampaignError,
                       match=r"cell t3d/broadcast/4/2 failed: "
                             r"DeliveryError"):
        degradation_curves("t3d", "broadcast",
                           fault_preset("single-link-outage"), fast=True)
