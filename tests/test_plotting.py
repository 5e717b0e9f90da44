"""Tests for the ASCII plotting helpers."""

import pytest

from repro.experiments.fig1 import Fig1Point, Fig1Result
from repro.experiments.plotting import ascii_plot, plot_fig1


class TestAsciiPlot:
    def test_empty(self):
        assert ascii_plot({}) == "(no data)"
        assert ascii_plot({"a": []}) == "(no data)"

    def test_markers_and_legend(self):
        out = ascii_plot({"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]})
        assert "o = up" in out
        assert "x = down" in out
        assert "o" in out.splitlines()[0] or "o" in out

    def test_axis_bounds_shown(self):
        out = ascii_plot({"s": [(2, 10), (8, 50)]})
        assert "50" in out
        assert "10" in out
        assert "2" in out and "8" in out

    def test_single_point_no_crash(self):
        out = ascii_plot({"s": [(1, 1)]})
        assert "o" in out

    def test_logy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": [(0, 0.0)]}, logy=True)

    def test_logy_scales(self):
        out = ascii_plot({"s": [(1, 1), (2, 1000)]}, logy=True)
        assert "1000" in out

    def test_labels(self):
        out = ascii_plot({"s": [(0, 0), (1, 1)]}, xlabel="cores", ylabel="time")
        assert "x: cores" in out and "y: time" in out

    def test_width_height_respected(self):
        out = ascii_plot({"s": [(0, 0), (1, 1)]}, width=30, height=8)
        rows = [l for l in out.splitlines() if "|" in l or "+" in l]
        assert len(rows) == 8


class TestPlotFig1:
    def test_renders_series(self):
        res = Fig1Result()
        for impl in ("orwl-bind", "orwl-nobind", "openmp"):
            for cores, t in [(8, 1.0), (16, 0.6)]:
                res.points.append(Fig1Point(impl, cores, t, 1.0, 0, 0.0))
        out = plot_fig1(res)
        assert "orwl-bind" in out
        assert "cores" in out
