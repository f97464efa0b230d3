"""Tests for the ASCII chart renderer."""

import pytest

from repro.experiments.plotting import AsciiChart, figure8_chart


def test_basic_render_contains_markers_and_legend():
    chart = AsciiChart(title="T")
    chart.add_series("a", [0, 1, 2], [0, 5, 10])
    chart.add_series("b", [0, 1, 2], [10, 5, 0])
    text = chart.render()
    assert "T" in text
    assert "*=a" in text
    assert "o=b" in text
    assert "*" in text and "o" in text


def test_y_axis_labels_show_extremes():
    chart = AsciiChart()
    chart.add_series("s", [0, 10], [0, 800])
    text = chart.render()
    assert "800" in text
    assert "0" in text
    assert "10" in text  # x max


def test_flat_series_renders():
    chart = AsciiChart()
    chart.add_series("flat", [1, 2, 3], [5, 5, 5])
    assert "*" in chart.render()


def test_single_point_series():
    chart = AsciiChart()
    chart.add_series("dot", [1], [1])
    assert "*" in chart.render()


def test_validation():
    chart = AsciiChart()
    with pytest.raises(ValueError):
        chart.render()
    with pytest.raises(ValueError):
        chart.add_series("bad", [1, 2], [1])
    with pytest.raises(ValueError):
        chart.add_series("empty", [], [])


def test_markers_cycle_automatically():
    chart = AsciiChart()
    for i in range(10):
        chart.add_series(f"s{i}", [0, 1], [i, i])
    markers = {s.marker for s in chart._series}
    assert len(markers) >= 8


def test_figure8_chart_integration():
    from repro.experiments.figure8 import Figure8Result
    result = Figure8Result(client_counts=[1, 8, 64])
    result.series["1B"] = {
        "scout": [110.0, 780.0, 840.0],
        "linux": [98.0, 425.0, 423.0],
    }
    text = figure8_chart(result, "1B")
    assert "Figure 8" in text
    assert "scout" in text and "linux" in text
    # The plateau value appears as the y-axis maximum.
    assert "840" in text
