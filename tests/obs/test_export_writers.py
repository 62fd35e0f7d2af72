"""Tests for the CSV/folded writers and Chrome-trace determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs import (
    HostProfile,
    chrome_trace_document,
    chrome_trace_events,
    write_chrome_trace,
    write_folded_stacks,
    write_profile_csv,
    write_spans_csv,
)
from repro.sim import Environment, Tracer

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

SPAN_FIELDS = ["id", "parent", "category", "name", "node", "start_us",
               "end_us", "duration_us", "detail"]


def _tracer_with_awkward_names():
    tracer = Tracer()
    root = tracer.begin(0.0, 'phase "one", early', "phase")
    span = tracer.begin(1.0, "msg 3->0, retry", "message", node=3,
                        parent=root, dst=0, nbytes=16)
    tracer.end(span, 2.5)
    open_span = tracer.begin(2.0, 'quoted "name"', "link", node=1)
    assert open_span.end is None  # stays open on purpose
    tracer.end(root, 3.0)
    return tracer


# -- spans CSV ------------------------------------------------------------

def test_spans_csv_header_is_stable(tmp_path):
    path = tmp_path / "spans.csv"
    write_spans_csv(Tracer(), str(path))
    assert path.read_text().splitlines() == [",".join(SPAN_FIELDS)]


def test_spans_csv_escapes_commas_and_quotes(tmp_path):
    path = tmp_path / "spans.csv"
    write_spans_csv(_tracer_with_awkward_names(), str(path))
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["name"] for row in rows] == [
        'phase "one", early', "msg 3->0, retry", 'quoted "name"']
    # The detail column is JSON and survives the CSV round-trip.
    assert json.loads(rows[1]["detail"]) == {"dst": 0, "nbytes": 16}
    # Open spans leave end_us empty rather than inventing a time.
    assert rows[2]["end_us"] == ""
    assert rows[0]["node"] == ""


# -- profile CSV / folded stacks ------------------------------------------

def _profiled_run():
    env = Environment()

    def worker():
        for _ in range(20):
            yield env.timeout(1.0)

    env.process(worker())
    with HostProfile() as profile:
        env.run()
    return profile


def test_profile_csv_empty_profiler(tmp_path):
    path = tmp_path / "profile.csv"
    write_profile_csv(HostProfile(), str(path))
    assert path.read_text().splitlines() == ["module,calls,self_s"]


def test_profile_csv_rows(tmp_path):
    profile = _profiled_run()
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["module"] for row in rows] == \
        [module for module, _, _ in profile.modules()]
    assert "sim/engine.py" in {row["module"] for row in rows}


def test_folded_stacks_empty_profiler(tmp_path):
    path = tmp_path / "stacks.folded"
    write_folded_stacks(HostProfile(), str(path))
    assert path.read_text() == ""


def test_folded_stacks_end_with_newline(tmp_path):
    profile = _profiled_run()
    path = tmp_path / "stacks.folded"
    write_folded_stacks(profile, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert text.splitlines() == profile.folded_lines()


# -- chrome trace determinism (satellite: explicit track ordering) --------

def test_thread_metadata_up_front_in_sorted_tid_order():
    tracer = Tracer()
    # Nodes first seen out of order: 5 before 2 before 0.
    for node in (5, 2, 0):
        span = tracer.begin(float(node), f"msg {node}", "message",
                            node=node)
        tracer.end(span, float(node) + 1)
    events = chrome_trace_events(tracer)
    meta = [e for e in events if e["ph"] == "M"]
    rest = [e for e in events if e["ph"] != "M"]
    # All metadata precedes all span events, and track names come in
    # ascending tid order regardless of first-seen span order.
    assert events[:len(meta)] == meta
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    assert [e["tid"] for e in thread_names] == [0, 1, 3, 6]
    assert thread_names[1]["args"]["name"] == "node 0"
    assert [e["tid"] for e in rest] == [6, 3, 1]


def test_marks_export_as_zero_length_spans_on_named_tracks():
    tracer = Tracer()
    span = tracer.begin(0.0, "msg 0", "message", node=0)
    tracer.end(span, 1.0)
    tracer.mark(0.5, "link-contention", node=9, waited_us=1.0)
    events = chrome_trace_events(tracer)
    named = {e["tid"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert named == {0, 1, 10}
    assert {e["ph"] for e in events} == {"M", "X"}
    mark = [e for e in events if e.get("cat") == "link-contention"]
    assert len(mark) == 1
    assert (mark[0]["tid"], mark[0]["ts"], mark[0]["dur"]) == (10, 0.5, 0)
    assert mark[0]["args"]["waited_us"] == 1.0


_TRACE_SNIPPET = """\
import json
from repro.faults import fault_preset
from repro.obs import chrome_trace_document
from repro.obs.capture import capture_collective

capture = capture_collective("t3d", "broadcast", nbytes=4096,
                             num_nodes=16, seed=7,
                             faults=fault_preset("flaky-link"))
print(json.dumps(chrome_trace_document(capture.tracer),
                 sort_keys=True), end="")
"""


def test_chrome_trace_byte_identical_across_processes():
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", _TRACE_SNIPPET],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC,
                 "PYTHONHASHSEED": "random"})
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    document = json.loads(outputs[0])
    assert document["otherData"]["spans"] > 0


def test_write_chrome_trace_byte_identical_across_calls(tmp_path):
    tracer = _tracer_with_awkward_names()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_chrome_trace(tracer, str(first))
    write_chrome_trace(tracer, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text()) \
        == chrome_trace_document(tracer)
