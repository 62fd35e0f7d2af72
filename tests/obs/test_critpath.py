"""Causal critical-path analyzer: chain, attribution, slack."""

import pytest

from repro.faults import fault_preset
from repro.obs.capture import capture_collective
from repro.obs.critpath import (
    COMPONENTS,
    critical_path,
    critpath_rows,
    write_critpath_csv,
)
from repro.sim import Tracer

#: The attribution must be exact: acceptance tolerance is 1e-9 s,
#: i.e. 1e-3 us.
SUM_TOL_US = 1e-3


def _assert_exact_partition(path):
    assert set(path.components) == set(COMPONENTS)
    assert sum(path.components.values()) == \
        pytest.approx(path.total_us, abs=SUM_TOL_US)
    for step in path.steps:
        assert sum(step.components.values()) == \
            pytest.approx(step.duration_us, abs=SUM_TOL_US)


def test_clean_broadcast_chain_and_attribution():
    capture = capture_collective("sp2", "broadcast", nbytes=4096,
                                 num_nodes=16)
    path = capture.critical_path()
    assert path.op == "broadcast"
    assert path.messages == 15
    assert path.steps, "clean broadcast must have a causal chain"
    # Binomial-tree depth: the chain is log2(p) hops deep.
    assert len(path.steps) == 4
    _assert_exact_partition(path)
    assert path.components["fault_recovery"] == 0.0
    assert path.components["wire"] > 0.0
    assert path.components["software"] > 0.0
    # Chain steps are causally ordered and connected by rank.
    for earlier, later in zip(path.steps, path.steps[1:]):
        assert earlier.end_us <= later.start_us + 1e-9
        assert earlier.dst == later.src


def test_clean_broadcast_slack_bounds():
    capture = capture_collective("sp2", "broadcast", nbytes=4096,
                                 num_nodes=16)
    path = capture.critical_path()
    assert set(path.slack_us) == set(range(16))
    for slack in path.slack_us.values():
        assert 0.0 <= slack <= path.total_us + 1e-9
    extremes = path.slack_extremes()
    assert extremes is not None
    (lo_rank, lo), (hi_rank, hi) = extremes
    assert lo <= hi
    assert lo == min(path.slack_us.values())
    assert hi == max(path.slack_us.values())


def test_faulty_broadcast_attributes_fault_recovery():
    """The acceptance scenario: a 64-node T3D broadcast losing a link
    mid-flight must attribute at least the injected recovery time
    (one full RTO of backoff) to the fault-recovery component."""
    plan = fault_preset("midflight-outage")
    capture = capture_collective("t3d", "broadcast", nbytes=1 << 20,
                                 num_nodes=64, faults=plan)
    path = capture.critical_path()
    _assert_exact_partition(path)
    assert path.components["fault_recovery"] >= plan.retry.timeout_us
    categories = {span.category for span in capture.tracer.spans()}
    assert "retransmit" in categories


def test_lost_small_messages_produce_backoff_spans():
    """When the wasted wire time is shorter than the RTO, the sender
    sits out the remainder under a ``backoff`` span."""
    from repro.faults import FaultPlan

    plan = FaultPlan(name="very-lossy", loss_probability=0.5)
    capture = capture_collective("sp2", "broadcast", nbytes=1024,
                                 num_nodes=16, faults=plan, seed=7)
    spans = capture.tracer.spans()
    retransmits = [s for s in spans if s.category == "retransmit"]
    backoffs = [s for s in spans if s.category == "backoff"]
    assert retransmits, "p=0.5 loss over 15 messages must lose some"
    assert backoffs, "1 KB wire time is far below the 1 ms RTO"
    for span in backoffs:
        assert span.end is not None
        assert span.detail["rto_us"] >= span.end - span.start
    path = capture.critical_path()
    _assert_exact_partition(path)
    assert path.components["fault_recovery"] > 0.0


def test_outage_from_start_produces_reroute_spans():
    plan = fault_preset("single-link-outage")
    capture = capture_collective("t3d", "broadcast", nbytes=65536,
                                 num_nodes=16, faults=plan)
    reroutes = [span for span in capture.tracer.spans()
                if span.category == "reroute"]
    assert reroutes, "dead link from t=0 must force detours"
    for span in reroutes:
        assert span.end is not None and span.end >= span.start
    path = capture.critical_path()
    _assert_exact_partition(path)


def test_multiple_iterations_selects_longest_collective():
    capture = capture_collective("sp2", "broadcast", nbytes=4096,
                                 num_nodes=8, iterations=3)
    collectives = [span for span in capture.tracer.spans()
                   if span.category == "collective"]
    assert len(collectives) == 3
    longest = max(collectives, key=lambda s: s.duration)
    path = capture.critical_path()
    assert path.total_us == pytest.approx(longest.duration)
    explicit = critical_path(capture.tracer, collective=collectives[0])
    assert explicit.seq == collectives[0].detail.get("seq")


def test_format_mentions_every_component():
    capture = capture_collective("t3d", "reduce", nbytes=1024,
                                 num_nodes=8)
    text = capture.critical_path().format()
    assert "critical path: reduce" in text
    for name in ("software", "wire", "contention", "fault-recovery"):
        assert name in text
    assert "per-rank slack" in text


def test_format_top_truncates_steps():
    capture = capture_collective("sp2", "broadcast", nbytes=4096,
                                 num_nodes=16)
    path = capture.critical_path()
    text = path.format(top=2)
    assert f"({len(path.steps) - 2} more steps)" in text


def test_csv_writer_chain_plus_total_row(tmp_path):
    capture = capture_collective("sp2", "broadcast", nbytes=4096,
                                 num_nodes=8)
    path = capture.critical_path()
    out = tmp_path / "critpath.csv"
    assert write_critpath_csv(path, str(out)) == str(out)
    lines = out.read_text().strip().splitlines()
    # header + one row per step + the totals row
    assert len(lines) == len(path.steps) + 2
    assert lines[0].startswith("step,span_id,name")
    assert lines[-1].startswith("total,")
    rows = critpath_rows(path)
    assert len(rows) == len(path.steps)
    for row, step in zip(rows, path.steps):
        assert row["duration_us"] == pytest.approx(step.duration_us)


def test_no_collective_span_raises():
    with pytest.raises(ValueError, match="no closed collective span"):
        critical_path(Tracer())
