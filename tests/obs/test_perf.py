"""Tests for the deterministic work meter (repro.obs.perf)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.obs import WORK_COUNTERS, WorkMeter
from repro.sim import Environment, Resource
from repro.mpi import MpiWorld

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_micro(meter=None):
    env = Environment()
    env.work = meter
    resource = Resource(env, capacity=1)

    def worker():
        for _ in range(10):
            request = resource.request()
            yield request
            yield env.timeout(0.5)
            resource.release(request)

    for index in range(3):
        env.process(worker(), name=f"worker-{index}")
    env.run()
    return env.now


def test_meter_starts_zeroed_and_snapshots_sorted():
    meter = WorkMeter()
    snapshot = meter.snapshot()
    assert set(snapshot) == set(WORK_COUNTERS)
    assert list(snapshot) == sorted(snapshot)
    assert all(value == 0 for value in snapshot.values())
    assert meter.total() == 0


def test_meter_counts_engine_and_resource_work():
    meter = WorkMeter()
    _run_micro(meter)
    assert meter.events_scheduled > 0
    assert meter.events_fired == meter.events_scheduled
    assert meter.heap_pushes == meter.events_scheduled
    assert meter.heap_pops == meter.events_fired
    assert meter.heap_peak >= 1
    # Events with no waiters dispatch zero callbacks, so the two
    # counters are close but not equal.
    assert meter.callbacks_dispatched > 0
    assert meter.resource_requests == 30
    assert meter.resource_grants == 30
    assert meter.resource_releases == 30
    assert meter.resource_cancellations == 0
    # Untouched subsystems stay zero.
    assert meter.transfers_booked == 0
    assert meter.messages_sent == 0


def test_meter_counts_cancellations_and_booking_wakeups():
    env = Environment()
    meter = WorkMeter()
    env.work = meter
    resource = Resource(env, capacity=1)
    held = resource.request()
    queued = resource.request()
    resource.release(queued)  # cancelled before its grant
    resource.release(held)
    start, _previous = resource.try_occupy(2.0)
    assert start == 0.0
    behind_booking = resource.request()  # granted when the booking ends
    env.run()
    assert behind_booking.triggered
    assert env.now == 2.0
    assert meter.resource_requests == 3
    assert meter.resource_cancellations == 1
    assert meter.resource_releases == 1
    assert meter.resource_grants == 2


def test_meter_reset_and_equality():
    first, second = WorkMeter(), WorkMeter()
    _run_micro(first)
    assert first != second
    assert first == first
    first.reset()
    assert first == second
    assert first.total() == 0


def test_meter_attachment_does_not_change_results():
    assert _run_micro(None) == _run_micro(WorkMeter()) == 15.0


def test_meter_counts_transport_and_fabric_work():
    meter = WorkMeter()
    world = MpiWorld("t3d", 4, seed=0)
    world.env.work = meter
    world.run_collective("broadcast", 1024)
    assert meter.messages_sent > 0
    assert meter.messages_delivered == meter.messages_sent
    assert meter.transfers_booked > 0
    assert meter.transfers_completed == meter.transfers_booked
    assert meter.link_acquisitions >= meter.transfers_booked
    assert meter.retransmissions == 0
    assert meter.transfers_aborted == 0


def test_meter_format_report_lists_nonzero_counters():
    meter = WorkMeter()
    report = meter.format_report()
    assert "no work recorded" in report
    _run_micro(meter)
    report = meter.format_report()
    assert "work counters:" in report
    assert "resource_requests" in report
    assert "transfers_booked" not in report  # zero counters omitted


def test_work_counters_identical_across_runs():
    first, second = WorkMeter(), WorkMeter()
    world = MpiWorld("sp2", 8, seed=0)
    world.env.work = first
    world.run_collective("broadcast", 4096)
    world = MpiWorld("sp2", 8, seed=0)
    world.env.work = second
    world.run_collective("broadcast", 4096)
    assert first.snapshot() == second.snapshot()


def test_work_counters_unaffected_by_profiler():
    from repro.obs import HostProfile

    def counters(profile):
        meter = WorkMeter()
        world = MpiWorld("paragon", 4, seed=0)
        world.env.work = meter
        if profile:
            with HostProfile():
                world.run_collective("allreduce", 512)
        else:
            world.run_collective("allreduce", 512)
        return meter.snapshot()

    assert counters(False) == counters(True)


_SUBPROCESS_SNIPPET = """
import json
from repro.mpi import MpiWorld
from repro.obs import WorkMeter

meter = WorkMeter()
world = MpiWorld("t3d", 4, seed=0)
world.env.work = meter
world.run_collective("broadcast", 1024)
print(json.dumps(meter.snapshot(), sort_keys=True))
"""


def test_work_counters_identical_across_processes():
    """The work section must be byte-stable across process boundaries
    (fresh interpreter, fresh hash seed)."""
    outputs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC,
                 "PYTHONHASHSEED": "random"})
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    meter = WorkMeter()
    world = MpiWorld("t3d", 4, seed=0)
    world.env.work = meter
    world.run_collective("broadcast", 1024)
    import json
    assert json.loads(outputs.pop()) == meter.snapshot()
