"""Tests for deterministic RNG streams and the tracer."""

import pytest

from repro.sim import NULL_SPAN, RandomStreams, Tracer


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


def test_tracer_disabled_drops_marks():
    tracer = Tracer(enabled=False)
    tracer.mark(1.0, "event", node=0, detail="x")
    assert tracer.spans() == []


def test_tracer_marks_are_zero_length_spans():
    tracer = Tracer(enabled=True)
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
    tracer = Tracer(enabled=True)
    tracer.mark(1.0, "x")
    span = tracer.begin(1.0, "s", "cat")
    tracer.end(span, 2.0)
    tracer.clear()
    assert tracer.spans() == []
    assert tracer.dropped == 0


def test_tracer_category_filter_accepts_collections():
    tracer = Tracer(enabled=True)
    tracer.mark(1.0, "send")
    tracer.mark(2.0, "recv")
    tracer.mark(3.0, "link")
    assert [s.category for s in tracer.spans(("send", "link"))] == \
        ["send", "link"]
    assert [s.category for s in tracer.spans({"recv"})] == ["recv"]
    assert len(tracer.spans("send")) == 1


def test_tracer_marks_in_time_window():
    tracer = Tracer(enabled=True)
    for t in (0.0, 1.0, 2.0, 3.0):
        tracer.mark(t, "tick")
    window = tracer.spans_between(1.0, 3.0)
    assert [s.start for s in window] == [1.0, 2.0]
    assert tracer.spans_between(1.0, 3.0, category="other") == []


def test_tracer_mark_ring_drops_oldest_and_counts():
    tracer = Tracer(enabled=True, max_spans=3)
    for t in range(5):
        tracer.mark(float(t), "tick", index=t)
    assert [s.start for s in tracer.spans()] == [2.0, 3.0, 4.0]
    assert tracer.dropped_spans == 2
    assert tracer.dropped == 2


def test_tracer_max_spans_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tracer(max_spans=0)
    with pytest.raises(ValueError):
        Tracer().configure_limits(max_spans=0)


def test_tracer_configure_limits_resets():
    tracer = Tracer(enabled=True, max_spans=2)
    tracer.mark(0.0, "a")
    tracer.mark(1.0, "b")
    tracer.mark(2.0, "c")
    tracer.configure_limits(max_spans=5)
    assert tracer.spans() == []
    assert tracer.dropped == 0


def test_span_begin_end_and_parenting():
    tracer = Tracer(enabled=True)
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
    tracer = Tracer(enabled=True)
    span = tracer.begin(1.0, "phase", "phase")
    tracer.extend(span, 3.0)
    tracer.extend(span, 2.0)  # never shrinks
    assert span.end == 3.0


def test_spans_category_filter_and_window():
    tracer = Tracer(enabled=True)
    a = tracer.begin(0.0, "a", "message")
    tracer.end(a, 1.0)
    b = tracer.begin(5.0, "b", "link")
    tracer.end(b, 6.0)
    assert tracer.spans("message") == [a]
    assert tracer.spans(("message", "link")) == [a, b]
    assert tracer.spans_between(4.0, 7.0) == [b]
    assert tracer.spans_between(0.0, 10.0, category="message") == [a]


def test_disabled_tracer_returns_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.begin(1.0, "x", "y")
    assert span is NULL_SPAN
    tracer.end(span, 2.0)     # no-ops, must not mutate the sentinel
    tracer.extend(span, 9.0)
    assert NULL_SPAN.end == 0.0
    assert tracer.spans() == []


def test_span_ring_drops_oldest():
    tracer = Tracer(enabled=True, max_spans=2)
    spans = [tracer.begin(float(t), f"s{t}", "cat") for t in range(4)]
    for span in spans:
        tracer.end(span, span.start + 0.5)  # safe even if dropped
    kept = tracer.spans()
    assert [s.name for s in kept] == ["s2", "s3"]
    assert tracer.dropped_spans == 2
