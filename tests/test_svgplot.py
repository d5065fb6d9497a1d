import hashlib
import tracemalloc
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dpopt.svgplot import PLOT_BLOCK, Series, line_plot, std_band


PINNED_SHA256 = (
    "a81d509005b28cab7e72151abc815e4edd84406fe8e3418afb4c9f7fadb5efa5")
# Digest of the random plots in_old_domain, as line_plot drew or
# refused them before it filtered x and guarded its floor.
RANDOM_SHA256 = (
    "11d915c0053a0868e56673e18ce6d12d807b1dbc09b59b73d55d5fc38f4ee987")
OWN_ERRORS = ("nothing to plot: every series is empty",
              "log axis needs at least one positive value")


def render(tmp_path, series):
    path = str(tmp_path / "plot.svg")
    line_plot(path, series, title="test plot")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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

    def test_bytes_pinned(self, tmp_path):
        # Six banded series: NaN, inf and zero samples in curves and band
        # edges, a lower edge below zero, a one-point series and labels
        # that need escaping.  The digest pins every byte the writer
        # produces for them.
        xs = np.arange(0.0, 200.0, 10.0)
        decay = 1.0 / (1.0 + xs)
        holes = decay.copy()
        holes[[3, 7]] = np.nan
        spikes = decay * 3.0
        spikes[5] = np.inf
        zeros = decay * 0.2
        zeros[[0, 11]] = 0.0
        nan_edge = decay * 0.4
        nan_edge[2] = np.nan
        inf_edge = spikes * 2.0
        inf_edge[9] = np.inf
        series = [
            Series("gap <&> mean", xs, decay, band=(decay / 2, decay * 2)),
            Series("holes", xs, holes, band=(nan_edge, holes * 1.5)),
            Series("spikes", xs, spikes, band=(spikes / 3, inf_edge)),
            Series("zeros", xs, zeros, band=std_band(zeros, zeros ** 2 * 4)),
            Series("one point", np.array([50.0]), np.array([1e-3]),
                   band=(np.array([5e-4]), np.array([2e-3]))),
            Series("wide", xs, decay * 10.0,
                   band=std_band(decay * 10.0, decay)),
        ]
        path = tmp_path / "pinned.svg"
        line_plot(str(path), series, title="pinned <&> plot",
                  y_label="y & <label>")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256


def random_series(rng):
    """1-4 series of 0-40 points, with labels that need escaping.  In
    each series, one sample in ten is NaN, +-inf, zero or -1, and also
    the smallest subnormal in one series of five; every value is
    negative in one series of ten; three x's in ten are NaN or +-inf in
    one series of five; two series in three have a band."""
    def spoil(values, odd, rate):
        hit = rng.random(len(values)) < rate
        values[hit] = rng.choice(odd, hit.sum())
        return values

    out = []
    for i in range(rng.integers(1, 5)):
        n = int(rng.integers(0, 41))
        odd = (np.nan, np.inf, -np.inf, 0.0, -1.0, 5e-324)
        odd = odd if rng.random() < 0.2 else odd[:-1]
        sign = -1.0 if rng.random() < 0.1 else 1.0
        rate = 0.3 if rng.random() < 0.2 else 0.0
        xs = spoil(10.0 * np.arange(n), (np.nan, np.inf, -np.inf), rate)
        ys, lower, upper = (spoil(sign * rng.lognormal(0.0, 3.0, n), odd, 0.1)
                            for _ in range(3))
        band = (lower, upper) if rng.random() < 0.67 else None
        out.append(Series(f"s{i} <&>", xs, ys, band))
    return out


def in_old_domain(series):
    """Every finite curve y has a finite x, and half the smallest
    positive value is above 0 or no value is nonpositive.  Outside it, an
    unfiltered x range or a floor of 0 ended in an error from the tick
    code, or in points off the canvas."""
    values = np.concatenate(
        [[], *(v for s in series for v in (s.ys, *(s.band or ())))])
    return (all(np.isfinite(s.xs[np.isfinite(s.ys)]).all() for s in series)
            and not (np.any(values == 5e-324) and np.any(values <= 0)))


def test_random_plots_draw_or_raise_their_own_errors(tmp_path):
    rng = np.random.default_rng(20)
    digest, outside = hashlib.sha256(), 0
    path = tmp_path / "random.svg"
    for _ in range(400):
        series = random_series(rng)
        try:
            line_plot(str(path), series, "random <&>")
            outcome = path.read_bytes()
        except ValueError as err:
            assert str(err) in OWN_ERRORS
            outcome = str(err).encode()
        if in_old_domain(series):
            digest.update(outcome)
        else:
            outside += 1
    assert outside > 100
    assert digest.hexdigest() == RANDOM_SHA256


LENGTHS = (1, PLOT_BLOCK - 1, PLOT_BLOCK, PLOT_BLOCK + 1, 2 * PLOT_BLOCK + 1,
           3 * PLOT_BLOCK + 2)
ODD = (np.nan, np.inf, -np.inf, 0.0, -1.0, 5e-324)


@st.composite
def series_across_blocks(draw):
    """1-4 series whose lengths straddle PLOT_BLOCK, each with or
    without a band and of either sign.  NaN, +-inf, 0, -1 or the
    smallest subnormal replace a drawn share of the values; x's are
    integer iterations, or floats with that share NaN or +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from(LENGTHS))
        rate = draw(st.sampled_from((0.0, 0.002, 0.3, 1.0)))

        def spoil(values, odd):
            hit = rng.random(n) < rate
            values[hit] = rng.choice(odd, hit.sum())
            return values

        xs = 10 * np.arange(n)
        if draw(st.booleans()):
            xs = spoil(xs.astype(float), ODD[:3])
        sign = draw(st.sampled_from((1.0, -1.0)))
        ys, lower, upper = (spoil(sign * rng.lognormal(0.0, 3.0, n), ODD)
                            for _ in range(3))
        band = (lower, upper) if draw(st.booleans()) else None
        out.append(Series(f"s{i} <&>", xs, ys, band))
    return out


def drawn(plot, path, series):
    """The bytes plot writes, or the message of the ValueError it raises
    before it opens the file."""
    path.unlink(missing_ok=True)
    try:
        plot(str(path), series, "blocks <&>", y_label="y & <label>")
    except ValueError as err:
        assert not path.exists()
        return str(err)
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(series=series_across_blocks())
def test_blocks_write_the_whole_array_bytes(tmp_path_factory, series):
    # The writer that formatted whole arrays is the reference: streaming
    # the points block by block changes no byte and no error.
    path = tmp_path_factory.getbasetemp() / "blocks.svg"
    assert drawn(line_plot, path, series) == \
        drawn(oracles.line_plot, path, series)


@pytest.mark.parametrize("records", [10_000, 100_000])
def test_plot_memory_stays_flat_in_the_record_count(tmp_path, records):
    # One banded series with integer x's, made before tracing starts:
    # the writer traces 0.18 MiB at either size, where formatting the
    # whole arrays traced 3.3 and 33.3 MiB.
    xs = np.arange(records)
    mean = 1.0 / (1.0 + xs)
    series = [Series("gap", xs, mean, band=std_band(mean, mean**2 / 4))]
    tracemalloc.start()
    try:
        line_plot(str(tmp_path / "flat.svg"), series, "flat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestStdBand:
    def test_band_is_mean_plus_minus_std(self):
        mean = np.array([1.0, 2.0, 3.0])
        var = np.array([0.04, 0.09, 0.25])
        lo, hi = std_band(mean, var)
        assert np.allclose(lo, mean - np.sqrt(var))
        assert np.allclose(hi, mean + np.sqrt(var))
