"""Tests for the ASCII log-log plot renderer."""

import pytest

from repro.bench import ascii_plot, plot_figure, sparkline
from repro.bench.figures import FigureData


def sample_series():
    return {
        "t3d": {2: 35.0, 8: 80.0, 32: 130.0, 128: 190.0},
        "sp2": {2: 85.0, 8: 190.0, 32: 300.0, 128: 420.0},
    }


def test_plot_contains_markers_and_legend():
    text = ascii_plot(sample_series(), width=40, height=10)
    assert "legend:" in text
    assert "o=sp2" in text and "x=t3d" in text
    assert "[log x, log y]" in text


def test_plot_axes_ticks():
    text = ascii_plot(sample_series(), width=40, height=10,
                      x_label="p", y_label="us")
    assert "2" in text and "128" in text       # x range
    assert "35" in text and "420" in text      # y range
    assert text.count("|") == 10               # one per grid row


def test_plot_monotone_series_descends_on_grid():
    # A single increasing series: its marker must appear on the top
    # row (max) and the bottom row (min).
    text = ascii_plot({"s": {1: 1.0, 10: 10.0, 100: 100.0}},
                      width=30, height=9)
    rows = [line for line in text.splitlines() if "|" in line]
    assert "o" in rows[0]
    assert "o" in rows[-1]


def test_plot_title():
    text = ascii_plot(sample_series(), title="Figure 1 (startup)")
    assert text.splitlines()[0] == "Figure 1 (startup)"


def test_log_falls_back_for_nonpositive_values():
    text = ascii_plot({"s": {0: 0.0, 5: 10.0}}, width=20, height=5)
    assert "[" not in text.splitlines()[-2]  # no log annotation


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        ascii_plot({})
    with pytest.raises(ValueError):
        ascii_plot({"s": {}})


def test_overlapping_markers_become_question_mark():
    series = {"a": {1: 1.0, 100: 100.0}, "b": {1: 1.0, 100: 42.0}}
    text = ascii_plot(series, width=20, height=8)
    assert "?" in text


def test_plot_figure_adapter():
    data = FigureData("Figure 1", "startup latencies", "us")
    data.add(("broadcast", "t3d"), 2, 35.0)
    data.add(("broadcast", "t3d"), 64, 150.0)
    text = plot_figure(data, width=30, height=8)
    assert "Figure 1: startup latencies" in text
    assert "broadcast/t3d" in text


def test_cli_plot_flag(capsys):
    from repro.cli import main
    assert main(["--fast", "figure", "4", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out


def test_sparkline_maps_range_onto_blocks():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line == "▁▂▃▄▅▆▇█"
    assert sparkline([5.0]) == "▁"
    assert sparkline([2, 2, 2]) == "▁▁▁"


def test_sparkline_explicit_bounds_and_clamping():
    assert sparkline([0.0, 10.0], lo=0.0, hi=10.0) == "▁█"
    # Values outside [lo, hi] clamp instead of wrapping.
    assert sparkline([-5.0, 99.0], lo=0.0, hi=10.0) == "▁█"
    assert sparkline([0.0, 0.0], lo=0.0, hi=10.0) == "▁▁"


def test_sparkline_rejects_bad_input():
    with pytest.raises(ValueError, match="nothing to plot"):
        sparkline([])
    with pytest.raises(ValueError, match="bad sparkline range"):
        sparkline([1.0], lo=5.0, hi=0.0)
