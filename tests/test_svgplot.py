import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from dpopt.svgplot import Series, line_plot, std_band


def render(tmp_path, series):
    path = str(tmp_path / "plot.svg")
    line_plot(path, series, title="test plot")
    return open(path, encoding="utf-8").read()


class TestLinePlot:
    def test_well_formed_svg(self, tmp_path):
        xs = np.arange(1, 50)
        text = render(tmp_path, [Series("gap", xs, 1.0 / xs)])
        root = ElementTree.fromstring(text)
        assert root.tag.endswith("svg")
        assert "test plot" in text

    def test_legend_and_polyline_per_series(self, tmp_path):
        xs = np.arange(1, 20)
        text = render(tmp_path, [
            Series("first", xs, xs * 1.0),
            Series("second", xs, xs * 2.0),
        ])
        assert text.count("<polyline") == 2
        assert "first" in text and "second" in text

    def test_log_axis_handles_nonpositive_samples(self, tmp_path):
        xs = np.arange(0, 30)
        ys = np.exp(-xs.astype(float))
        ys[5] = 0.0
        text = render(tmp_path, [Series("metric", xs, ys)])
        ElementTree.fromstring(text)
        assert "1e" in text

    def test_log_axis_needs_positive_values(self, tmp_path):
        xs = np.arange(5)
        with pytest.raises(ValueError):
            render(tmp_path, [Series("flat", xs, np.zeros(5))])

    def test_band_rendered_as_polygon(self, tmp_path):
        xs = np.arange(1, 20)
        ys = 1.0 / xs
        band = (ys * 0.5, ys * 1.5)
        text = render(tmp_path, [Series("gap", xs, ys, band=band)])
        assert "<polygon" in text

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render(tmp_path, [])
        with pytest.raises(ValueError):
            render(tmp_path, [Series("empty", np.array([]), np.array([]))])

    def test_nan_series_skipped(self, tmp_path):
        xs = np.arange(1, 10)
        good = Series("good", xs, 1.0 / xs)
        bad = Series("bad", xs, np.full(9, np.nan))
        text = render(tmp_path, [good, bad])
        assert text.count("<polyline") == 1


class TestStdBand:
    def test_band_is_mean_plus_minus_std(self):
        mean = np.array([1.0, 2.0, 3.0])
        var = np.array([0.04, 0.09, 0.25])
        lo, hi = std_band(mean, var)
        assert np.allclose(lo, mean - np.sqrt(var))
        assert np.allclose(hi, mean + np.sqrt(var))
