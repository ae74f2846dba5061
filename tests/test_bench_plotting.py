"""Tests for the ASCII plotting helper."""

import pytest

from repro.bench.plotting import ascii_plot, curve_plot
from repro.bench.runner import CurvePoint
from repro.errors import ConfigurationError


class TestAsciiPlot:
    def test_basic_render(self):
        plot = ascii_plot({"a": [(0.5, 100.0), (0.9, 10.0)]})
        lines = plot.splitlines()
        assert any("o" in line for line in lines)
        assert "o=a" in lines[-1]

    def test_two_series_distinct_markers(self):
        plot = ascii_plot({
            "ganns": [(0.5, 1000.0), (0.9, 100.0)],
            "song": [(0.5, 300.0), (0.9, 50.0)],
        })
        assert "o=ganns" in plot
        assert "x=song" in plot
        assert "o" in plot and "x" in plot

    def test_axis_labels(self):
        plot = ascii_plot({"a": [(0.2, 5.0), (0.8, 50.0)]})
        assert "0.20" in plot
        assert "0.80" in plot

    def test_y_extremes_annotated(self):
        plot = ascii_plot({"a": [(0.0, 1000.0), (1.0, 250_000.0)]})
        assert "250k" in plot
        assert "1.0k" in plot

    def test_log_scale_rejects_non_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            ascii_plot({"a": [(0.0, 0.0)]})

    def test_single_point(self):
        plot = ascii_plot({"a": [(0.5, 10.0)]})
        assert "o" in plot

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ascii_plot({})
        with pytest.raises(ConfigurationError, match="at least one"):
            ascii_plot({"a": []})

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ConfigurationError, match="at least"):
            ascii_plot({"a": [(0, 1)]}, width=4, height=2)

    def test_all_points_land_on_canvas(self):
        points = [(i / 10, 10.0 ** i) for i in range(1, 8)]
        plot = ascii_plot({"a": points}, width=40, height=10)
        canvas = "\n".join(plot.splitlines()[:-3])  # drop axes + legend
        assert canvas.count("o") == len(points)


class TestCurvePlot:
    def test_from_curve_points(self):
        curves = {
            "ganns": [CurvePoint(0.5, 1000.0, (64, 32)),
                      CurvePoint(0.9, 100.0, (128, 128))],
        }
        plot = curve_plot(curves)
        assert "o=ganns" in plot
