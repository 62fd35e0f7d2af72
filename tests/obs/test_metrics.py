"""Tests for the metrics registry primitives."""

import pytest

from repro.obs import Counter, Histogram, MetricsRegistry


def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    counter.inc()
    counter.inc(41)
    assert registry.counter("x").value == 42


def test_histogram_log2_buckets():
    hist = MetricsRegistry().histogram("h")
    for value in (0, 0.5, 1, 2, 3, 1024, 1500):
        hist.observe(value)
    assert hist.count == 7
    buckets = dict(hist.nonzero_buckets())
    assert buckets[1] == 2       # 0 and 0.5 (below 1)
    assert buckets[2] == 1       # 1 -> [1, 2)
    assert buckets[4] == 2       # 2, 3 -> [2, 4)
    assert buckets[2048] == 2    # 1024, 1500 -> [1024, 2048)
    assert hist.min == 0
    assert hist.max == 1500
    assert hist.mean == pytest.approx(sum((0, 0.5, 1, 2, 3, 1024, 1500)) / 7)


def test_histogram_huge_values_clamp_to_last_bucket():
    hist = MetricsRegistry().histogram("h")
    hist.observe(2 ** 40)
    assert hist.count == 1
    assert sum(count for _, count in hist.nonzero_buckets()) == 1


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("h").observe(-1)


def test_registry_get_or_create_and_type_conflict():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    with pytest.raises(TypeError):
        registry.histogram("a")


def test_registry_snapshot_is_json_friendly():
    import json

    registry = MetricsRegistry()
    registry.counter("c").inc(5)
    registry.histogram("h").observe(10)
    snapshot = registry.snapshot()
    json.dumps(snapshot)  # must not raise
    assert snapshot["c"] == {"type": "counter", "value": 5}
    assert snapshot["h"]["count"] == 1


def test_registry_format_report_mentions_all_instruments():
    registry = MetricsRegistry()
    registry.counter("alpha").inc()
    registry.histogram("gamma").observe(4)
    report = registry.format_report()
    for name in ("alpha", "gamma"):
        assert name in report


def test_registry_has_no_enabled_flag():
    # A registry is on by being attached (env.metrics), not by a flag.
    assert not hasattr(MetricsRegistry(), "enabled")
    assert len(MetricsRegistry()) == 0


def test_instruments_importable_directly():
    assert Counter("c").value == 0
    assert Histogram("h").count == 0
