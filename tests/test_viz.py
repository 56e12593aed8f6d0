"""Tests for the ASCII visualization helpers."""

import numpy as np

from repro import viz
from repro.core.metrics import HitRateTracker
from repro.training.telemetry import TrainingReport


class TestSparkline:
    def test_length_matches_input(self):
        assert len(viz.sparkline([1, 2, 3, 4])) == 4

    def test_resampling_width(self):
        assert len(viz.sparkline(np.arange(100), width=20)) == 20

    def test_monotone_series_uses_extremes(self):
        line = viz.sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        assert viz.sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_empty(self):
        assert viz.sparkline([]) == ""


class TestBarChart:
    def test_labels_and_values_present(self):
        chart = viz.horizontal_bar_chart({"a": 1.0, "bb": 2.0}, width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ") and "bb" in lines[1]
        assert "2" in lines[1]

    def test_longest_bar_is_max_value(self):
        chart = viz.horizontal_bar_chart({"x": 1.0, "y": 4.0}, width=8)
        x_line, y_line = chart.splitlines()
        assert y_line.count("█") == 8
        assert x_line.count("█") == 2

    def test_sorted_option(self):
        chart = viz.horizontal_bar_chart({"low": 1.0, "high": 9.0}, sort=True)
        assert chart.splitlines()[0].startswith("high")

    def test_empty(self):
        assert viz.horizontal_bar_chart({}) == ""


class TestStackedBreakdown:
    def test_contains_legend_percentages(self):
        out = viz.stacked_breakdown({"rpc": 3.0, "ddp": 1.0}, width=40)
        assert "rpc 75.0%" in out
        assert "ddp 25.0%" in out
        assert out.startswith("[")

    def test_small_components_filtered(self):
        out = viz.stacked_breakdown({"big": 100.0, "tiny": 0.001}, width=40)
        assert "tiny" not in out

    def test_empty_breakdown(self):
        assert "empty" in viz.stacked_breakdown({})


class TestLinePlot:
    def test_dimensions(self):
        plot = viz.line_plot({"s": np.linspace(0, 1, 30)}, height=6, width=30)
        lines = plot.splitlines()
        # 6 rows + axis + legend
        assert len(lines) == 8

    def test_multiple_series_legend(self):
        plot = viz.line_plot({"a": [1, 2], "b": [2, 1]}, height=4, width=10)
        assert "* a" in plot and "o b" in plot

    def test_empty(self):
        assert viz.line_plot({}) == ""

    def test_y_label(self):
        plot = viz.line_plot({"a": [1, 2]}, height=3, width=5, y_label="hit rate")
        assert plot.startswith("hit rate")


class TestHitRatePlotAndComparison:
    def test_hit_rate_plot(self):
        tracker = HitRateTracker()
        for i in range(20):
            tracker.record(i, 20 - i, eviction=(i % 5 == 0 and i > 0))
        out = viz.hit_rate_plot(tracker, width=20, height=5)
        assert "cumulative hit rate" in out
        assert "eviction points" in out

    def test_hit_rate_plot_empty(self):
        assert "no hit-rate history" in viz.hit_rate_plot(HitRateTracker())

    def test_comparison_summary(self):
        base = TrainingReport(
            mode="baseline", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=1, total_simulated_time_s=2.0,
        )
        pref = TrainingReport(
            mode="prefetch", backend="cpu", dataset="d", arch="sage",
            num_machines=1, trainers_per_machine=1, epochs=1, total_simulated_time_s=1.0,
        )
        out = viz.comparison_summary(base, pref)
        assert "improvement: 50.0%" in out
        assert "speedup: 2.00x" in out
