"""Tests for ASCII plotting.  (The file name predates the removal of
the result exporter; ``obs/export.py`` and ``run --json`` are the
exporters, tested in ``tests/obs`` and ``tests/test_cli.py``.)"""

import pytest

from repro.analysis.plot import ascii_bars, ascii_cdf, ascii_plot


class TestAsciiPlot:
    def test_marks_appear_for_each_series(self):
        text = ascii_plot({"a": [(0, 0), (10, 10)],
                           "b": [(0, 10), (10, 0)]}, width=20, height=8)
        assert "o" in text and "x" in text
        assert "o=a" in text and "x=b" in text

    def test_extremes_land_on_plot_corners(self):
        text = ascii_plot({"s": [(0, 0), (1, 1)]}, width=10, height=5)
        rows = [line for line in text.splitlines() if "|" in line]
        assert rows[0].rstrip().endswith("o")   # max y at max x
        assert "o" in rows[-1].split("|")[1][:1]  # min y at min x

    def test_axis_labels_present(self):
        text = ascii_plot({"s": [(1, 2)]}, x_label="Gbps",
                          y_label="latency", title="T")
        assert text.startswith("T")
        assert "Gbps vs latency" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})

    def test_cdf_wrapper(self):
        text = ascii_cdf({"pmnet": [(22.0, 0.5), (26.0, 1.0)]})
        assert "latency (us) vs fraction" in text

    def test_bars_scale_to_peak(self):
        text = ascii_bars({"base": 1.0, "pmnet": 4.0}, width=40, unit="x")
        lines = text.splitlines()
        base_bar = lines[0].count("#")
        pmnet_bar = lines[1].count("#")
        assert pmnet_bar == 40
        assert base_bar == 10

    def test_bars_reject_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_bars({})
        with pytest.raises(ValueError):
            ascii_bars({"a": 0.0})

