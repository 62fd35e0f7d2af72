"""End-to-end span/metrics tests over real collective runs.

These assert the paper-level invariants the observability layer
exists for: a binomial broadcast on p=16 really shows ceil(log2 p)=4
phases, and per-link busy time is consistent with the transmission
delay D(m, p) the simulator reports.
"""

import inspect
import json
import math

import pytest

from repro.core import aggregated_message_length
from repro.faults import FaultInjector
from repro.machines import Machine
from repro.mpi import MpiWorld
from repro.network import NetworkFabric
from repro.node import DmaEngine, MemorySystem, Nic
from repro.obs import (
    MetricsRegistry,
    chrome_trace_document,
    format_utilization_report,
    link_stats,
    write_chrome_trace,
)
from repro.obs.capture import capture_collective


@pytest.fixture(scope="module")
def broadcast_capture():
    return capture_collective("sp2", "broadcast", nbytes=4096,
                              num_nodes=16, seed=3)


def test_broadcast_has_exactly_ceil_log2_p_phase_spans(broadcast_capture):
    phases = broadcast_capture.tracer.spans("phase")
    assert len(phases) == math.ceil(math.log2(16)) == 4


def test_span_nesting_collective_phase_message_link(broadcast_capture):
    tracer = broadcast_capture.tracer
    collectives = tracer.spans("collective")
    assert len(collectives) == 1
    collective = collectives[0]
    phases = tracer.spans("phase")
    assert all(p.parent == collective.id for p in phases)
    phase_ids = {p.id for p in phases}
    messages = tracer.spans("message")
    # One message per non-root rank.
    assert len(messages) == 15
    assert all(m.parent in phase_ids for m in messages)
    message_ids = {m.id for m in messages}
    links = tracer.spans("link")
    assert links and all(s.parent in message_ids for s in links)


def test_all_spans_closed_and_ordered(broadcast_capture):
    for span in broadcast_capture.tracer.spans():
        assert span.end is not None
        assert span.end >= span.start


def test_phase_spans_cover_member_messages(broadcast_capture):
    tracer = broadcast_capture.tracer
    by_id = {p.id: p for p in tracer.spans("phase")}
    for message in tracer.spans("message"):
        phase = by_id[message.parent]
        assert phase.start <= message.start
        assert phase.end >= message.end


def test_collective_metrics_recorded(broadcast_capture):
    metrics = broadcast_capture.metrics
    assert metrics.counter("coll.broadcast.calls").value == 1
    histogram = metrics.histogram("coll.broadcast.phases")
    assert histogram.count == 1
    assert histogram.max == 4
    assert metrics.counter("mpi.messages_sent").value == 15
    assert metrics.counter("mpi.messages_delivered").value == 15


def test_link_busy_consistent_with_transmission_delay():
    """Table 3 case: SP2 broadcast, m=64 KB, p=16.

    Per-link busy time can never exceed the elapsed window, and the
    total serialization work on the wire must account for at least
    f(m, p) bytes at the link's per-byte cost — the transmission-delay
    component D(m, p) decomposes onto links consistently.
    """
    nbytes, nodes = 65536, 16
    capture = capture_collective("sp2", "broadcast", nbytes=nbytes,
                                 num_nodes=nodes, seed=1, trace=False)
    elapsed = capture.elapsed_us
    stats = link_stats(capture.world.machine.fabric)
    used = [s for s in stats if s["transfers"]]
    assert used
    for s in used:
        assert 0 < s["busy_us"] <= elapsed + 1e-6
    aggregated = aggregated_message_length("broadcast", nbytes, nodes)
    assert sum(s["bytes"] for s in used) >= aggregated
    us_per_byte = capture.world.spec.network.link_parameters.us_per_byte
    total_busy = sum(s["busy_us"] for s in used)
    assert total_busy >= aggregated * us_per_byte
    report = format_utilization_report(capture.world.machine, elapsed)
    assert "busiest links" in report
    assert "achieved aggregate bandwidth" in report


def test_contention_recorded_under_alltoall():
    capture = capture_collective("paragon", "alltoall", nbytes=16384,
                                 num_nodes=16, seed=2, trace=False)
    stats = link_stats(capture.world.machine.fabric)
    assert any(s["wait_us"] > 0 for s in stats)
    assert capture.metrics.counter("fabric.contention_stalls").value > 0


def test_chrome_trace_document_valid_and_nested(broadcast_capture,
                                                tmp_path):
    path = write_chrome_trace(broadcast_capture.tracer,
                              str(tmp_path / "trace.json"))
    doc = json.loads(open(path).read())
    events = doc["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    categories = {e["cat"] for e in complete}
    assert {"collective", "phase", "message", "link"} <= categories
    for event in complete:
        assert event["dur"] >= 0
        assert "id" in event["args"]
    # Spot-check parenting survived export.
    ids = {e["args"]["id"] for e in complete}
    children = [e for e in complete if "parent" in e["args"]]
    assert children and all(e["args"]["parent"] in ids for e in children)
    assert chrome_trace_document(broadcast_capture.tracer)[
        "otherData"]["dropped"] == 0


def test_spans_csv_round_trip(broadcast_capture, tmp_path):
    import csv

    from repro.obs import write_spans_csv

    path = write_spans_csv(broadcast_capture.tracer,
                           str(tmp_path / "spans.csv"))
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(broadcast_capture.tracer.spans())
    assert {"collective", "phase", "message", "link"} <= \
        {row["category"] for row in rows}


def test_capture_max_spans_ring_drops_oldest():
    capture = capture_collective("sp2", "broadcast", nbytes=1024,
                                 num_nodes=16, seed=0, max_spans=10)
    assert len(capture.tracer.spans()) == 10
    assert capture.tracer.dropped > 0


def test_observers_detached_by_default_world():
    world = MpiWorld("t3d", 4, seed=0)
    world.run_collective("broadcast", 256)
    env = world.env
    assert env.work is None and env.tracer is None and env.metrics is None
    assert not hasattr(world, "tracer") and not hasattr(world, "metrics")
    assert not hasattr(world.machine, "tracer")
    assert not hasattr(world.machine, "metrics")


def test_observers_reach_layers_only_through_the_environment():
    for cls in (Machine, NetworkFabric, Nic, DmaEngine, MemorySystem,
                FaultInjector):
        parameters = inspect.signature(cls).parameters
        assert "tracer" not in parameters, cls.__name__
        assert "metrics" not in parameters, cls.__name__


def test_collective_observed_from_partway_records_no_coll_metrics():
    """Metrics attached while a broadcast is in flight (every rank has
    entered it) see its remaining messages but count no call."""
    world = MpiWorld("sp2", 8, seed=0)
    env = world.env

    def body(ctx):
        yield from ctx.collective("broadcast", 1024)

    processes = [env.process(body(ctx)) for ctx in world.comm.contexts]
    env.run(until=350.0)
    assert not all(process.triggered for process in processes)
    env.metrics = MetricsRegistry()
    env.run()
    assert all(process.ok for process in processes)
    names = env.metrics.names()
    assert "mpi.messages_delivered" in names
    assert [name for name in names if name.startswith("coll.")] == []
