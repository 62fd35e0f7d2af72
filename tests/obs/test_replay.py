"""Tests for replay-frame serialization (CollectiveCapture)."""

import json

from repro.core.canonical import dumps
from repro.faults import fault_preset
from repro.obs.capture import REPLAY_SCHEMA, capture_collective


def _capture(machine="t3d", faults="single-link-outage", **kwargs):
    plan = fault_preset(faults) if faults else None
    return capture_collective(machine, "broadcast", nbytes=4096,
                              num_nodes=16, seed=7, faults=plan,
                              **kwargs)


def test_replay_document_shape():
    doc = _capture().to_replay_frames()
    assert doc["schema"] == REPLAY_SCHEMA
    assert doc["machine"] == "t3d"
    assert doc["op"] == "broadcast"
    assert doc["num_nodes"] == 16
    assert doc["seed"] == 7
    assert doc["faults"] == "single-link-outage"
    assert doc["elapsed_us"] > 0
    assert len(doc["topology"]["positions"]) == 16
    for x, y in doc["topology"]["positions"]:
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
    assert doc["frames"]
    categories = {frame["category"] for frame in doc["frames"]}
    assert "message" in categories
    assert "link" in categories
    # The outage forced a detour, so recovery work is in the replay.
    assert categories & {"retransmit", "backoff", "reroute"}


def test_frames_sorted_and_linked_to_critical_path():
    doc = _capture().to_replay_frames()
    keys = [(frame["start_us"], frame["id"])
            for frame in doc["frames"]]
    assert keys == sorted(keys)
    ids = {frame["id"] for frame in doc["frames"]}
    critical = doc["critical_path"]
    assert critical is not None
    assert critical["total_us"] > 0
    assert set(critical["span_ids"]) <= ids
    assert set(critical["components"]) == {
        "software", "wire", "contention", "fault_recovery"}


def test_torus_and_mesh_links_carry_geometry():
    for machine in ("t3d", "paragon"):
        doc = _capture(machine=machine,
                       faults=None).to_replay_frames()
        links = [f for f in doc["frames"] if f["category"] == "link"]
        assert links
        assert all("points" in frame for frame in links)
        for frame in links:
            assert len(frame["points"]) == 2


def test_omega_links_have_no_geometry():
    # SP2 link ids name switch ports, not nodes; the replay falls back
    # to the message's src->dst line.
    doc = _capture(machine="sp2", faults=None).to_replay_frames()
    links = [f for f in doc["frames"] if f["category"] == "link"]
    assert links
    assert all("points" not in frame for frame in links)


def test_clean_capture_omits_faults_key():
    doc = _capture(faults=None).to_replay_frames()
    assert "faults" not in doc


def test_replay_serialization_is_byte_stable():
    first = dumps(_capture().to_replay_frames())
    second = dumps(_capture().to_replay_frames())
    assert first == second
    assert first.endswith("\n")
    assert json.loads(first)["schema"] == REPLAY_SCHEMA
