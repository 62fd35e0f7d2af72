"""Tests for the repro-bench command-line interface."""

import pytest

from repro.cli import main


def test_measure_command(capsys):
    code = main(["measure", "t3d", "barrier", "--bytes", "0",
                 "--nodes", "8", "--iterations", "2", "--runs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t3d barrier" in out
    assert "per-process min/mean/max" in out


def test_measure_broadcast_reports_units(capsys):
    code = main(["measure", "sp2", "broadcast", "--bytes", "1024",
                 "--nodes", "4", "--iterations", "2", "--runs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "us" in out or "ms" in out


def test_figure_command_fast(capsys):
    code = main(["--fast", "figure", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 4" in out
    assert "broadcast/t3d" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "9"])


def test_unknown_machine_rejected():
    with pytest.raises(SystemExit):
        main(["measure", "cm5", "broadcast"])


@pytest.mark.parametrize("argv", [
    ["diff", "missing.json", "other.json"],
    ["measure", "sp2", "bogus"],
    ["measure", "sp2", "broadcast", "--nodes", "1"],
    ["measure", "sp2", "broadcast", "--iterations", "0"],
    ["measure", "sp2", "broadcast", "--runs", "0"],
    ["measure", "sp2", "broadcast", "--bytes", "-5"],
    ["profile", "sp2", "broadcast", "--nodes", "9999"],
    ["trace", "sp2", "bogus"],
    ["critpath", "sp2", "bogus"],
    ["chaos", "sp2", "bogus"],
    ["sensitivity", "sp2", "bogus"],
    ["sensitivity", "sp2", "broadcast", "--nodes", "1"],
    ["sweep", "--grid", "smoke", "--iterations", "0", "--no-cache"],
], ids=" ".join)
def test_usage_errors_exit_2_with_one_line(argv, capsys, monkeypatch,
                                           tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["profile", "sp2", "broadcast", "--nodes", "4", "--top", "-1"],
    ["sensitivity", "sp2", "broadcast", "--top", "-1"],
    ["sensitivity", "sp2", "broadcast", "--top", "0"],
], ids=" ".join)
def test_top_must_be_positive(argv, capsys):
    # Like every other --top: a count of zero or less is a usage error,
    # not a slice that silently drops the last entry.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "argument --top: must be >= 1" in capsys.readouterr().err


@pytest.fixture
def custom_machine():
    """A hypothetical machine registered like examples/custom_machine.py
    does, removed from the registry again afterwards."""
    from dataclasses import replace

    from repro import register_machine_spec
    from repro.machines import T3D, registry

    spec = replace(T3D, name="dream", full_name="hypothetical T3D")
    register_machine_spec(spec)
    yield spec.name
    del registry._REGISTRY[spec.name]


def test_machine_choices_follow_the_registry(custom_machine, capsys,
                                             tmp_path):
    assert main(["measure", custom_machine, "broadcast", "--nodes", "4",
                 "--iterations", "1", "--runs", "1"]) == 0
    assert f"on {custom_machine} broadcast" in capsys.readouterr().out
    assert main(["dash", "--artifacts", str(tmp_path),
                 "--capture", "cm5:broadcast",
                 "--out", str(tmp_path / "site")]) == 2
    assert f"sp2/t3d/paragon/{custom_machine}" in capsys.readouterr().err


def test_sensitivity_command(capsys):
    code = main(["sensitivity", "t3d", "scatter", "--bytes", "65536",
                 "--nodes", "64", "--top", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sensitivity of scatter" in out
    assert "dma.us_per_byte" in out


def test_trace_command_writes_valid_chrome_json(capsys, tmp_path):
    import json
    out = tmp_path / "trace.json"
    csv_path = tmp_path / "spans.csv"
    code = main(["trace", "sp2", "broadcast", "--bytes", "4096",
                 "--nodes", "16", "--out", str(out),
                 "--csv", str(csv_path)])
    text = capsys.readouterr().out
    assert code == 0
    assert "broadcast on sp2" in text
    assert "spans:" in text
    doc = json.loads(out.read_text())
    categories = {e.get("cat") for e in doc["traceEvents"]}
    assert {"collective", "phase", "message", "link"} <= categories
    assert csv_path.read_text().startswith("id,")


def test_trace_command_max_spans(capsys):
    code = main(["trace", "t3d", "broadcast", "--bytes", "1024",
                 "--nodes", "8", "--max-spans", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spans: 5" in out
    assert "dropped:" in out


def test_profile_command_reports_utilization_and_engine(capsys):
    code = main(["profile", "sp2", "broadcast", "--bytes", "4096",
                 "--nodes", "16", "--top", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "link utilization" in out
    assert "host profile:" in out
    assert "sim/engine.py" in out
    assert "metrics:" in out
    assert "mpi.messages_sent" in out


def test_profile_work_counters_are_those_of_the_plain_run(capsys):
    """Profiling records metrics, yet the run it reports is the one a
    sweep executes: same events, same short-circuited transfers."""
    from repro.mpi import MpiWorld
    from repro.obs import WorkMeter

    assert main(["profile", "sp2", "broadcast", "--work"]) == 0
    out = capsys.readouterr().out
    block = out[out.index("work counters:"):].split("\n\n")[0]
    world = MpiWorld("sp2", 16)
    meter = WorkMeter()
    world.env.work = meter
    world.run_collective("broadcast", 4096)
    assert block == meter.format_report()
    assert meter.events_fired == 148
    assert meter.transfers_shortcircuited == 11


def test_fast_flag_does_not_leak_into_later_calls(monkeypatch, capsys):
    """``--fast`` is an argument of the one command it is given to: it
    leaves the environment alone, and a later in-process figure sweeps
    the paper's machine sizes again."""
    import os

    import repro.runner.pool as pool
    from repro.bench import figure1
    from repro.core import CollectiveSample, machine_sizes_for

    before = dict(os.environ)
    assert main(["--fast", "measure", "t3d", "barrier", "--bytes", "0",
                 "--nodes", "4", "--iterations", "1", "--runs", "1"]) == 0
    assert dict(os.environ) == before

    def instant(machine, op, nbytes, p, config):
        return CollectiveSample(op, machine, nbytes, p, 1.0, (1.0,),
                                1.0, 1.0, 1.0)

    monkeypatch.setattr(pool, "measure_collective", instant)
    data = figure1(ops=("broadcast",))
    for machine in ("sp2", "t3d", "paragon"):
        assert tuple(data.get("broadcast", machine)) == \
            machine_sizes_for(machine)


def test_chaos_curves_name_an_undeliverable_cell(capsys):
    # Two T3D nodes have one link from 0 to 1, and the outage cuts it.
    code = main(["--fast", "chaos", "t3d", "broadcast", "--curves"])
    captured = capsys.readouterr()
    assert code == 1
    assert "faulty:" in captured.out
    assert captured.err.startswith("cell t3d/broadcast/4/2 failed: "
                                   "DeliveryError")
    assert len(captured.err.splitlines()) == 1


def test_sweep_command_cold_then_warm(capsys, tmp_path):
    out = tmp_path / "BENCH_sweep.json"
    args = ["sweep", "--grid", "smoke", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
            "--csv", str(tmp_path / "sweep.csv"),
            "--iterations", "1", "--runs", "1"]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "sweep smoke (mode=sim, workers=2)" in cold
    assert "0 cache hits" in cold
    assert out.exists()
    assert (tmp_path / "sweep.csv").read_text().startswith("grid,")

    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "0 evaluated" in warm
    assert "20 cache hits" in warm


def test_sweep_command_unknown_grid(capsys):
    assert main(["sweep", "--grid", "fig9", "--no-cache"]) == 2
    assert "known presets" in capsys.readouterr().err


def test_sweep_machine_and_op_filters(capsys, tmp_path):
    import json
    out = tmp_path / "filtered.json"
    assert main(["sweep", "--grid", "smoke", "--machines", "t3d",
                 "--ops", "broadcast", "--no-cache",
                 "--iterations", "1", "--runs", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {c["machine"] for c in payload["cells"]} == {"t3d"}
    assert {c["op"] for c in payload["cells"]} == {"broadcast"}


def test_sweep_rejects_filters_that_empty_the_grid(capsys):
    assert main(["sweep", "--grid", "smoke", "--machines", "paragon",
                 "--no-cache"]) == 2
    assert "not in grid" in capsys.readouterr().err
    assert main(["sweep", "--grid", "smoke", "--ops", "alltoall",
                 "--no-cache"]) == 2
    assert "not in grid" in capsys.readouterr().err


def test_sweep_rejects_invalid_workers_and_timeout(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--workers", "0"])
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--cell-timeout", "0"])


def test_sweep_with_fault_preset_changes_fingerprints(capsys,
                                                      tmp_path):
    import json
    clean = tmp_path / "clean.json"
    faulty = tmp_path / "faulty.json"
    base = ["sweep", "--grid", "smoke", "--machines", "t3d",
            "--ops", "broadcast", "--no-cache",
            "--iterations", "1", "--runs", "1"]
    assert main(base + ["--out", str(clean)]) == 0
    assert main(base + ["--faults", "flaky-link",
                        "--out", str(faulty)]) == 0
    clean_doc = json.loads(clean.read_text())
    faulty_doc = json.loads(faulty.read_text())
    assert clean_doc["config"]["faults"] is None
    assert faulty_doc["config"]["faults"]["name"] == "flaky-link"
    assert {c["fingerprint"] for c in clean_doc["cells"]}.isdisjoint(
        c["fingerprint"] for c in faulty_doc["cells"])


def test_sweep_unknown_fault_preset(capsys):
    assert main(["sweep", "--grid", "smoke", "--faults", "gremlins",
                 "--no-cache"]) == 2
    assert "known presets" in capsys.readouterr().err


def test_chaos_command_reports_counters(capsys):
    code = main(["chaos", "t3d", "broadcast", "--bytes", "65536",
                 "--nodes", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plan 'single-link-outage'" in out
    assert "clean:" in out and "faulty:" in out
    assert "reroutes=" in out


def test_chaos_command_unknown_preset(capsys):
    assert main(["chaos", "t3d", "broadcast", "--faults",
                 "gremlins"]) == 2
    assert "known presets" in capsys.readouterr().err


def test_diff_command_clean_and_dirty(capsys, tmp_path):
    import json
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base_args = ["sweep", "--grid", "smoke", "--mode", "model",
                 "--no-cache"]
    assert main(base_args + ["--out", str(first)]) == 0
    assert main(base_args + ["--out", str(second)]) == 0
    capsys.readouterr()

    assert main(["diff", str(first), str(second)]) == 0
    assert "identical" in capsys.readouterr().out

    payload = json.loads(second.read_text())
    payload["cells"][0]["result"]["time_us"] *= 2.0
    second.write_text(json.dumps(payload))
    assert main(["diff", str(first), str(second)]) == 1
    dirty = capsys.readouterr().out
    assert "1 changed" in dirty
    assert main(["diff", str(first), str(second), "--rtol", "2"]) == 0


def test_diff_against_checked_in_baseline(capsys, tmp_path):
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    out = tmp_path / "BENCH_sweep.json"
    assert main(["sweep", "--grid", "smoke", "--mode", "model",
                 "--no-cache", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["diff", str(baseline), str(out),
                 "--rtol", "1e-9"]) == 0
    assert "identical" in capsys.readouterr().out


def test_critpath_command_clean(capsys, tmp_path):
    csv_path = tmp_path / "chain.csv"
    code = main(["critpath", "sp2", "broadcast", "--bytes", "4096",
                 "--nodes", "16", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "critical path: broadcast" in out
    assert "fault-recovery 0.0 (0.0%)" in out
    assert "per-rank slack" in out
    assert csv_path.read_text().splitlines()[0].startswith("step,")


def test_critpath_command_faulty_attributes_recovery(capsys):
    code = main(["critpath", "t3d", "broadcast", "--bytes", "1048576",
                 "--nodes", "64", "--faults", "midflight-outage"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fault-recovery" in out
    # The recovery component must be nonzero in the totals line.
    totals = next(line for line in out.splitlines()
                  if line.startswith("total"))
    assert "fault-recovery 0.0" not in totals


def test_critpath_command_unknown_preset(capsys):
    assert main(["critpath", "t3d", "broadcast", "--faults",
                 "gremlins"]) == 2
    assert "known presets" in capsys.readouterr().err


def test_audit_command_baseline_passes(capsys, tmp_path):
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    out_path = tmp_path / "drift.json"
    code = main(["audit", str(baseline), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "-> PASS" in out
    assert out_path.exists()

    second = tmp_path / "drift2.json"
    assert main(["audit", str(baseline), "--out", str(second)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == second.read_bytes()


def test_audit_command_exits_nonzero_on_breach(capsys, tmp_path):
    import json
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    payload = json.loads(baseline.read_text())
    payload["cells"][0]["result"]["time_us"] *= 3.0
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload))
    code = main(["audit", str(doctored)])
    out = capsys.readouterr().out
    assert code == 1
    assert "BREACH" in out and "-> FAIL" in out


def test_audit_command_bad_artifact_path(capsys, tmp_path):
    assert main(["audit", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err


def test_chaos_command_out_dumps_metrics(capsys, tmp_path):
    import json
    out_path = tmp_path / "chaos.json"
    code = main(["chaos", "t3d", "broadcast", "--bytes", "65536",
                 "--nodes", "16", "--out", str(out_path)])
    assert code == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    document = json.loads(out_path.read_text())
    assert document["plan"] == "single-link-outage"
    assert document["counters"]["reroutes"] > 0
    # The full registry snapshot rides along for offline analysis.
    assert "fabric.transfers" in document["metrics"]
    assert document["metrics"]["fabric.transfers"]["type"] == "counter"


def test_sweep_breakdown_attaches_components(capsys, tmp_path):
    import json
    out_path = tmp_path / "sweep.json"
    code = main(["sweep", "--grid", "smoke", "--no-cache",
                 "--breakdown", "--machines", "sp2",
                 "--ops", "broadcast", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    document = json.loads(out_path.read_text())
    assert document["breakdown"] is True
    for cell in document["cells"]:
        breakdown = cell["result"]["breakdown"]
        parts = breakdown["components"]
        assert set(parts) == {"software", "wire", "contention",
                              "fault_recovery"}
        assert sum(parts.values()) == pytest.approx(
            breakdown["total_us"], abs=1e-3)


def test_sweep_breakdown_requires_sim_mode(capsys):
    assert main(["sweep", "--grid", "smoke", "--mode", "model",
                 "--no-cache", "--breakdown"]) == 2
    assert "--breakdown requires" in capsys.readouterr().err


def test_profile_command_csv_folded_and_work(capsys, tmp_path):
    csv_path = tmp_path / "modules.csv"
    folded_path = tmp_path / "host.folded"
    code = main(["profile", "t3d", "broadcast", "--bytes", "1024",
                 "--nodes", "8", "--work",
                 "--csv", str(csv_path), "--folded", str(folded_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "work counters:" in out
    assert "messages_sent" in out
    assert csv_path.read_text().startswith("module,calls,self_s\n")
    folded = folded_path.read_text().strip().splitlines()
    assert folded and folded == sorted(folded)
    assert all(line.rpartition(" ")[2].isdigit() for line in folded)


def test_perf_command_emits_and_checks_baseline(capsys, tmp_path):
    out = tmp_path / "BENCH_engine.json"
    code = main(["perf", "--suite", "smoke", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "engine perf suite 'smoke'" in stdout
    assert "micro/engine-timeouts" in stdout
    assert out.exists()

    assert main(["perf", "--suite", "smoke",
                 "--check", str(out)]) == 0
    checked = capsys.readouterr().out
    assert "identical to baseline" in checked
    assert "perf check: PASS" in checked


def test_perf_command_check_fails_on_counter_change(capsys, tmp_path):
    import json
    out = tmp_path / "BENCH_engine.json"
    assert main(["perf", "--suite", "smoke", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["work"]["micro/engine-timeouts"]["counters"][
        "events_fired"] += 1
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["perf", "--suite", "smoke",
                 "--check", str(out)]) == 1
    checked = capsys.readouterr().out
    assert "work-counter mismatches" in checked
    assert "perf check: FAIL" in checked


def test_perf_command_has_no_queue_selection_flag(capsys):
    # The engine has one event queue; there is nothing to choose.
    with pytest.raises(SystemExit) as excinfo:
        main(["perf", "--suite", "smoke", "--scheduler", "heap"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --scheduler" in capsys.readouterr().err


def test_perf_command_check_rejects_foreign_artifact(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "other/1"}')
    assert main(["perf", "--suite", "smoke",
                 "--check", str(bogus)]) == 2
    assert "not an engine-perf artifact" in capsys.readouterr().err


def test_perf_command_flame_writes_folded_stacks(capsys, tmp_path):
    folded = tmp_path / "host.folded"
    code = main(["perf", "--suite", "smoke", "--flame", str(folded),
                 "--top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "host profile:" in out
    lines = folded.read_text().strip().splitlines()
    assert lines
    assert any(line.startswith("sim/engine.py;") for line in lines)


def test_tune_command_writes_byte_stable_artifact(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["tune", "--machines", "sp2", "--grid", "smoke",
            "--no-cache"]
    assert main(args + ["--out", str(first)]) == 0
    out = capsys.readouterr().out
    assert "flips" in out
    assert str(first) in out
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_tune_command_artifact_loads_as_decision_table(capsys,
                                                       tmp_path):
    from repro.tuner import load_decision_table

    out = tmp_path / "BENCH_tuning.json"
    assert main(["tune", "--machines", "t3d", "--grid", "smoke",
                 "--no-cache", "--out", str(out)]) == 0
    table = load_decision_table(out)
    assert table.entries
    table.validate()


def test_tune_command_rejects_unknown_grid_and_machine(capsys):
    assert main(["tune", "--grid", "galaxy", "--no-cache"]) == 2
    assert "known grids" in capsys.readouterr().err
    assert main(["tune", "--machines", "cm5", "--no-cache"]) == 2
    assert "cm5" in capsys.readouterr().err


def test_tune_command_rejects_unknown_op(capsys):
    assert main(["tune", "--machines", "sp2", "--grid", "smoke",
                 "--ops", "teleport", "--no-cache"]) == 2
    assert "teleport" in capsys.readouterr().err


def test_sweep_with_decision_table_flips_cells(capsys, tmp_path):
    table = tmp_path / "BENCH_tuning.json"
    assert main(["tune", "--machines", "sp2", "--grid", "smoke",
                 "--no-cache", "--out", str(table)]) == 0
    capsys.readouterr()
    plain_out = tmp_path / "plain.json"
    tuned_out = tmp_path / "tuned.json"
    # fig3's broadcast panel reaches the long-message, large-p region
    # where the tuned crossovers actually fire (the sweep smoke grid
    # stops at p=4 and 1024 bytes, where the paper's defaults win).
    base = ["sweep", "--grid", "fig3", "--machines", "sp2",
            "--ops", "broadcast", "--no-cache"]
    assert main(base + ["--out", str(plain_out)]) == 0
    assert main(base + ["--decision-table", str(table),
                        "--out", str(tuned_out)]) == 0
    import json
    plain = json.loads(plain_out.read_text())
    tuned = json.loads(tuned_out.read_text())
    overridden = [row for row in tuned["cells"] if "algorithm" in row]
    assert overridden, "the tuned table flipped no smoke-grid cell"
    # Every flipped cell is strictly faster than the plain run.
    plain_times = {(row["machine"], row["op"], row["nbytes"],
                    row["p"]): row["result"]["time_us"]
                   for row in plain["cells"]}
    for row in overridden:
        key = (row["machine"], row["op"], row["nbytes"], row["p"])
        assert row["result"]["time_us"] < plain_times[key]


def test_sweep_decision_table_requires_sim_mode(capsys, tmp_path):
    table = tmp_path / "BENCH_tuning.json"
    assert main(["tune", "--machines", "sp2", "--grid", "smoke",
                 "--no-cache", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--grid", "smoke", "--mode", "analytic",
                 "--decision-table", str(table), "--no-cache"]) == 2
    assert "sim" in capsys.readouterr().err


def test_sweep_decision_table_rejects_stale_table(capsys, tmp_path):
    import json
    from repro.tuner import TUNING_SCHEMA

    table = tmp_path / "stale.json"
    table.write_text(json.dumps({
        "schema": TUNING_SCHEMA,
        "machines": {"sp2": {"broadcast": {
            "default": None,
            "entries": [{"min_p": 0, "rules": [
                {"min_bytes": 0,
                 "algorithm": "no_such_algorithm"}]}],
        }}},
    }))
    assert main(["sweep", "--grid", "smoke",
                 "--decision-table", str(table), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "no_such_algorithm" in err
    assert "known algorithms" in err


def test_sweep_decision_table_missing_file(capsys, tmp_path):
    assert main(["sweep", "--grid", "smoke", "--decision-table",
                 str(tmp_path / "absent.json"), "--no-cache"]) == 2
    assert capsys.readouterr().err


def test_audit_trend_renders_sparklines(capsys, tmp_path):
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    out_path = tmp_path / "drift.json"
    # First audit seeds the history; second one trends against it.
    assert main(["audit", str(baseline), "--out", str(out_path)]) == 0
    capsys.readouterr()
    code = main(["audit", str(baseline), "--trend", "--out",
                 str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "drift trend over 2 generation(s)" in out
    assert "verdicts: PP" in out
    assert "▁" in out


def test_audit_trend_without_history_is_single_generation(capsys,
                                                          tmp_path):
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    code = main(["audit", str(baseline), "--trend", "--out",
                 str(tmp_path / "absent.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "drift trend over 1 generation(s)" in out


def test_audit_trend_bad_history_path(capsys, tmp_path):
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    assert main(["audit", str(baseline), "--trend", "--history",
                 str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err


def test_dash_command_builds_ledger_and_page(capsys, tmp_path):
    import json
    from pathlib import Path
    baseline = Path(__file__).parent / "golden" / \
        "BENCH_sweep_baseline.json"
    out_dir = tmp_path / "site"
    code = main(["dash", "--artifacts", str(baseline),
                 "--capture", "t3d:broadcast", "--bytes", "4096",
                 "--nodes", "8", "--faults", "single-link-outage",
                 "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    ledger_path = out_dir / "BENCH_ledger.json"
    page = out_dir / "index.html"
    replay = out_dir / "replay_t3d_broadcast.json"
    assert ledger_path.exists() and page.exists() and replay.exists()
    ledger = json.loads(ledger_path.read_text())
    assert ledger["families"] == {"replay": 1, "sweep": 1}
    assert ledger["bundle_digest"] in page.read_text("utf-8")
    assert ledger["bundle_digest"][:16] in out

    # Re-running over the same inputs reproduces the ledger byte for
    # byte (the out directory itself is never scanned for inputs).
    first = ledger_path.read_bytes()
    assert main(["dash", "--artifacts", str(baseline),
                 "--capture", "t3d:broadcast", "--bytes", "4096",
                 "--nodes", "8", "--faults", "single-link-outage",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert ledger_path.read_bytes() == first


def test_dash_command_rejects_bad_capture_spec(capsys, tmp_path):
    assert main(["dash", "--artifacts", str(tmp_path),
                 "--capture", "cm5:broadcast",
                 "--out", str(tmp_path / "site")]) == 2
    assert "sp2/t3d/paragon" in capsys.readouterr().err
    assert main(["dash", "--artifacts", str(tmp_path),
                 "--capture", "t3d", "--out",
                 str(tmp_path / "site")]) == 2
    assert capsys.readouterr().err


def test_dash_command_rejects_bad_faults_preset(capsys, tmp_path):
    assert main(["dash", "--artifacts", str(tmp_path),
                 "--capture", "t3d:broadcast", "--faults", "gremlins",
                 "--out", str(tmp_path / "site")]) == 2
    assert "known presets" in capsys.readouterr().err


def test_dash_command_rejects_unclassifiable_artifact(capsys,
                                                      tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('{"just": "notes"}')
    assert main(["dash", "--artifacts", str(junk),
                 "--out", str(tmp_path / "site")]) == 2
    assert "not a recognised artifact" in capsys.readouterr().err
