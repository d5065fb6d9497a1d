"""Self-contained SVG 1.1 line plots, no plotting dependency.

Built for metric-versus-iteration curves: linear x axis, log10 y
axis, optional shaded mean-plus-minus-one-std band per series.
Output is deterministic for identical input, so plot files are as
reproducible as the CSVs next to them.  The writer streams: ranges,
masks and point text are taken one block of points at a time, so its
memory does not grow with the record count.  One band series of
100,001 points traces 0.18 MiB (33 MiB from whole arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 760, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 78, 22, 46, 58


@dataclass
class Series:
    """One curve: xs against ys, with an optional (lower, upper) band;
    all of one length."""

    label: str
    xs: np.ndarray
    ys: np.ndarray
    band: tuple[np.ndarray, np.ndarray] | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.1e}"
    return f"{value:g}"


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """Round ticks over [lo, hi], about five of them."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_d = math.floor(lo)
    hi_d = math.ceil(hi)
    span = hi_d - lo_d
    step = max(1, int(math.ceil(span / 8)))
    return [float(d) for d in range(lo_d, hi_d + 1, step)]


def _element(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element with its attributes in the given order, each `_`
    in a name written as `-`: self-closing, or around the escaped text."""
    head = tag + "".join(
        f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items()
    )
    if text is None:
        return f"<{head}/>"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{head}>{text}</{tag}>"


# Points per block: line_plot reads, maps and writes each series this
# many points at a time.  On a 100,001-point band series 1024 traces
# 0.18 MiB, in about the time of 2048 or 4096; 128 took 1.6 times as long.
PLOT_BLOCK = 1024


def _blocks(s: Series, reverse: bool = False):
    """[x, y] or [x, y, lower, upper] of a series as float arrays,
    PLOT_BLOCK points at a time, last block first when reversed."""
    starts = range(0, len(s.xs), PLOT_BLOCK)
    for a in reversed(starts) if reverse else starts:
        yield [np.asarray(v[a:a + PLOT_BLOCK], dtype=float)
               for v in (s.xs, s.ys, *(() if s.band is None else s.band))]


def line_plot(path: str, series: list[Series], title: str,
              y_label: str = "value") -> None:
    """Write an SVG line chart of the given series against iteration to
    path, with a log10 y axis.  Raises ValueError when no curve has a
    point with finite x and y, or no value is finite and positive."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # The finite values of every curve and band edge set the y range;
    # the x range is that of the curves' points with finite x and y.
    # Block minima and maxima are exact: the ranges are whole-array ones.
    x_lo = floor = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for x, *values in (b for s in series for b in _blocks(s)):
        keep = np.isfinite(x) & np.isfinite(values[0])
        if keep.any():
            x_lo = min(x_lo, float(x[keep].min()))
            x_hi = max(x_hi, float(x[keep].max()))
        for v in values:
            floor = min(floor, float(v[v > 0].min(initial=math.inf)))
    if x_hi < x_lo:
        raise ValueError("nothing to plot: every series is empty")
    if not math.isfinite(floor):
        raise ValueError("log axis needs at least one positive value")
    # Nonpositive values are clamped to half the smallest positive value
    # (or to it, where half is 0), so curves that touch zero stay visible.
    floor = floor / 2.0 or floor

    def ty(values: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(values, floor))

    for _, *values in (b for s in series for b in _blocks(s)):
        for t in (ty(v[np.isfinite(v)]) for v in values):
            y_lo = min(y_lo, float(t.min(initial=math.inf)))
            y_hi = max(y_hi, float(t.max(initial=-math.inf)))
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(t: float) -> float:
        return _MARGIN_T + (1.0 - (t - y_lo) / (y_hi - y_lo)) * plot_h

    def points(s: Series, i: int, j: int, step: int = 1):
        """Blocks of x against ty of column i where x and columns i and j
        are finite, in order, or backward for a step of -1."""
        for b in _blocks(s, step < 0):
            keep = np.isfinite(b[0]) & np.isfinite(b[i]) & np.isfinite(b[j])
            yield b[0][keep][::step], ty(b[i][keep])[::step]

    def draw(element: str, *blocks) -> None:
        """The element around its nonempty blocks' points; none without."""
        head, tail = element.split("\0")
        for x, t in (b for part in blocks for b in part):
            if len(x):
                handle.write(head + " ".join(map(
                    "{:.2f},{:.2f}".format, px(x).tolist(), py(t).tolist())))
                head = " "
        if head == " ":
            handle.write(tail + "\n")

    def put(*elements: str) -> None:
        handle.writelines(f"{e}\n" for e in elements)

    # Ticks are taken before the file is opened: like the ranges, they
    # can raise.
    y_ticks = [t for t in _log_ticks(y_lo, y_hi) if y_lo <= t <= y_hi]
    x_ticks = [t for t in _linear_ticks(x_lo, x_hi) if x_lo <= t <= x_hi]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        put(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
            '<g font-family="sans-serif" font-size="13" fill="#333333">',
            _element("text", title, x=_WIDTH // 2, y=24, text_anchor="middle",
                     font_size=16))
        # Gridlines and tick labels.
        for t in y_ticks:
            yy = _fmt(py(t))
            put(_element("line", x1=_MARGIN_L, y1=yy, x2=_WIDTH - _MARGIN_R,
                         y2=yy, stroke="#dddddd", stroke_width=1),
                _element("text", f"1e{int(round(t))}", x=_MARGIN_L - 8,
                         y=_fmt(py(t) + 4), text_anchor="end"))
        for t in x_ticks:
            xx = _fmt(px(t))
            put(_element("line", x1=xx, y1=_MARGIN_T, x2=xx,
                         y2=_HEIGHT - _MARGIN_B, stroke="#eeeeee",
                         stroke_width=1),
                _element("text", _tick_label(t), x=xx,
                         y=_HEIGHT - _MARGIN_B + 20, text_anchor="middle"))
        # Axes.
        mid_y = _fmt(_MARGIN_T + plot_h / 2)
        put(_element("line", x1=_MARGIN_L, y1=_MARGIN_T, x2=_MARGIN_L,
                     y2=_HEIGHT - _MARGIN_B, stroke="#333333",
                     stroke_width=1.5),
            _element("line", x1=_MARGIN_L, y1=_HEIGHT - _MARGIN_B,
                     x2=_WIDTH - _MARGIN_R, y2=_HEIGHT - _MARGIN_B,
                     stroke="#333333", stroke_width=1.5),
            _element("text", "iteration", x=_WIDTH // 2, y=_HEIGHT - 14,
                     text_anchor="middle"),
            _element("text", y_label, x=20, y=mid_y, text_anchor="middle",
                     transform=f"rotate(-90 20 {mid_y})"))

        # Every band lies beneath every curve: along the upper edge (column
        # 3), then back along the lower one (2).  The legend sits top right
        # inside the plot area.
        colors = [PALETTE[i % len(PALETTE)] for i in range(len(series))]
        for s, color in zip(series, colors):
            if s.band is not None:
                draw(_element("polygon", points="\0", fill=color,
                              fill_opacity=0.15, stroke="none"),
                     points(s, 3, 2), points(s, 2, 3, -1))
        for s, color in zip(series, colors):
            draw(_element("polyline", points="\0", fill="none", stroke=color,
                          stroke_width=1.8), points(s, 1, 1))
        lx = _WIDTH - _MARGIN_R - 170
        for i, (s, color) in enumerate(zip(series, colors)):
            y0 = _MARGIN_T + 10 + 18 * i
            put(_element("line", x1=lx, y1=y0, x2=lx + 26, y2=y0,
                         stroke=color, stroke_width=2.5),
                _element("text", s.label, x=lx + 32, y=y0 + 4))
        put("</g>", "</svg>")


def std_band(mean: np.ndarray, var: np.ndarray):
    """Mean plus and minus one standard deviation."""
    std = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    m = np.asarray(mean, dtype=float)
    return m - std, m + std
