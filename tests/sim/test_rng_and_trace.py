"""Tests for deterministic RNG streams and the tracer."""

import pytest

import repro.sim
from repro.sim import RandomStreams, Tracer


def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x").random(5)
    b = RandomStreams(7).stream("x").random(5)
    assert list(a) == list(b)


def test_different_names_independent():
    streams = RandomStreams(7)
    a = streams.stream("alpha").random(3)
    b = streams.stream("beta").random(3)
    assert list(a) != list(b)


def test_adding_streams_does_not_perturb_existing():
    first = RandomStreams(3)
    before = list(first.stream("node.0").random(4))
    second = RandomStreams(3)
    second.stream("something.else").random(10)  # extra consumer
    after = list(second.stream("node.0").random(4))
    assert before == after


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("a") is streams.stream("a")


def test_jitter_centred_and_positive():
    streams = RandomStreams(11)
    draws = [streams.jitter("j", 0.05) for _ in range(500)]
    assert all(d > 0 for d in draws)
    assert 0.95 < sum(draws) / len(draws) < 1.05


def test_jitter_zero_sigma_is_exact_one():
    assert RandomStreams(1).jitter("j", 0.0) == 1.0


def test_uniform_in_range():
    streams = RandomStreams(5)
    for _ in range(100):
        value = streams.uniform("u", 10.0, 20.0)
        assert 10.0 <= value < 20.0


def test_tracer_has_no_enabled_flag_and_no_null_span():
    # A tracer is on by being attached (env.tracer), not by a flag.
    assert not hasattr(Tracer(), "enabled")
    assert "NULL_SPAN" not in repro.sim.__all__
    assert not hasattr(repro.sim, "NULL_SPAN")


def test_tracer_marks_are_zero_length_spans():
    tracer = Tracer()
    tracer.mark(1.0, "send", node=0, nbytes=64)
    tracer.mark(2.0, "recv", node=1)
    tracer.mark(3.0, "send", node=1, nbytes=32)
    assert len(tracer.spans()) == 3
    sends = tracer.spans("send")
    assert [(s.start, s.end) for s in sends] == [(1.0, 1.0), (3.0, 3.0)]
    assert [s.name for s in sends] == ["send", "send"]
    assert [s.node for s in sends] == [0, 1]
    assert sends[0].detail["nbytes"] == 64
    assert sends[0].parent == 0 and sends[0].duration == 0.0


def test_tracer_clear():
    tracer = Tracer(max_spans=1)
    tracer.mark(1.0, "x")
    span = tracer.begin(1.0, "s", "cat")
    tracer.end(span, 2.0)
    assert tracer.dropped == 1
    tracer.clear()
    assert tracer.spans() == []
    assert tracer.dropped == 0


def test_tracer_category_filter_accepts_collections():
    tracer = Tracer()
    tracer.mark(1.0, "send")
    tracer.mark(2.0, "recv")
    tracer.mark(3.0, "link")
    assert [s.category for s in tracer.spans(("send", "link"))] == \
        ["send", "link"]
    assert [s.category for s in tracer.spans({"recv"})] == ["recv"]
    assert len(tracer.spans("send")) == 1


def test_tracer_mark_ring_drops_oldest_and_counts():
    tracer = Tracer(max_spans=3)
    for t in range(5):
        tracer.mark(float(t), "tick", index=t)
    assert [s.start for s in tracer.spans()] == [2.0, 3.0, 4.0]
    assert tracer.dropped == 2
    assert not hasattr(tracer, "dropped_spans")


def test_tracer_max_spans_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tracer(max_spans=0)


def test_span_begin_end_and_parenting():
    tracer = Tracer()
    parent = tracer.begin(1.0, "collective", "collective", op="bcast")
    child = tracer.begin(2.0, "phase 1", "phase", parent=parent)
    tracer.end(child, 4.0)
    tracer.end(parent, 5.0, phases=1)
    assert parent.id != child.id
    assert child.parent == parent.id
    assert parent.parent == 0
    assert child.duration == 2.0
    assert parent.detail["phases"] == 1
    assert not parent.open


def test_span_extend_pushes_end_out_monotonically():
    tracer = Tracer()
    span = tracer.begin(1.0, "phase", "phase")
    tracer.extend(span, 3.0)
    tracer.extend(span, 2.0)  # never shrinks
    assert span.end == 3.0


def test_span_ring_drops_oldest():
    tracer = Tracer(max_spans=2)
    spans = [tracer.begin(float(t), f"s{t}", "cat") for t in range(4)]
    for span in spans:
        tracer.end(span, span.start + 0.5)  # safe even if dropped
    kept = tracer.spans()
    assert [s.name for s in kept] == ["s2", "s3"]
    assert tracer.dropped == 2
