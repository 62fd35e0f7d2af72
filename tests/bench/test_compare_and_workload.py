"""Tests for the bench helpers: comparison utilities and the paper's
machine-size grid."""

import pytest

from repro.bench import (
    crossover_message_size,
    monotonically_increasing,
    ranking,
    winner,
)
from repro.bench.figures import FigureData
from repro.core import machine_sizes_for


def test_ranking_orders_fastest_first():
    values = {"sp2": 30.0, "t3d": 10.0, "paragon": 20.0}
    assert ranking(values) == ["t3d", "paragon", "sp2"]
    assert winner(values) == "t3d"


def test_winner_empty_rejected():
    with pytest.raises(ValueError):
        winner({})


def test_crossover_detects_sign_change():
    a = {4: 10.0, 1024: 50.0, 65536: 900.0}
    b = {4: 20.0, 1024: 40.0, 65536: 500.0}
    # a faster at 4, slower at 1024 -> crossover reported at 1024.
    assert crossover_message_size(a, b) == 1024


def test_crossover_none_when_dominated():
    a = {4: 1.0, 1024: 2.0}
    b = {4: 3.0, 1024: 4.0}
    assert crossover_message_size(a, b) is None


def test_crossover_ignores_ties():
    a = {4: 1.0, 8: 2.0, 16: 5.0}
    b = {4: 1.0, 8: 3.0, 16: 4.0}
    assert crossover_message_size(a, b) == 16


def test_crossover_disjoint_domains_rejected():
    with pytest.raises(ValueError):
        crossover_message_size({1: 1.0}, {2: 2.0})


def test_monotonically_increasing():
    assert monotonically_increasing({2: 1.0, 4: 2.0, 8: 2.0})
    assert not monotonically_increasing({2: 2.0, 4: 1.0})
    # Tolerance forgives small dips.
    assert monotonically_increasing({2: 2.0, 4: 1.9}, tolerance=0.1)


def test_t3d_capped_at_64_nodes():
    assert machine_sizes_for("t3d") == (2, 4, 8, 16, 32, 64)
    assert machine_sizes_for("sp2")[-1] == 128
    assert machine_sizes_for("paragon")[-1] == 128


def test_figure_data_add_get_format():
    data = FigureData("Figure X", "demo", "us")
    data.add(("broadcast", "t3d"), 2, 35.0)
    data.add(("broadcast", "t3d"), 4, 58.0)
    assert data.get("broadcast", "t3d") == {2: 35.0, 4: 58.0}
    text = data.format()
    assert "Figure X: demo" in text
    assert "broadcast/t3d" in text


def test_document_diff_paths_walks_nested_documents():
    from repro.bench import document_diff_paths

    a = {"x": 1, "nested": {"same": True, "num": 1.5},
         "items": [1, 2, 3]}
    b = {"x": 2, "nested": {"same": True, "num": 2.5},
         "items": [1, 9, 3]}
    assert document_diff_paths(a, b) == \
        ["items/1", "nested/num", "x"]
    assert document_diff_paths(a, a) == []
    # Missing keys and length changes are reported as paths too.
    assert document_diff_paths({"k": 1}, {}) == ["k"]
    assert document_diff_paths([1], [1, 2]) == ["length"]
    # Scalar root mismatch.
    assert document_diff_paths(1, 2) == ["<root>"]
    # int vs float of equal value is not a difference (JSON numbers).
    assert document_diff_paths({"n": 1}, {"n": 1.0}) == []
    # ...but bool vs int is (True != 1 semantically in artifacts).
    assert document_diff_paths({"n": True}, {"n": 1}) == ["n"]
