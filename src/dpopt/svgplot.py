"""Self-contained SVG 1.1 line plots, no plotting dependency.

Built for metric-versus-iteration curves: linear x axis, log10 y
axis, optional shaded mean-plus-minus-one-std band per series.
Output is deterministic for identical input, so plot files are as
reproducible as the CSVs next to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
)

_WIDTH = 760
_HEIGHT = 480
_MARGIN_L = 78
_MARGIN_R = 22
_MARGIN_T = 46
_MARGIN_B = 58


@dataclass
class Series:
    """One curve: xs against ys, with an optional (lower, upper) band."""

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


def line_plot(
    path: str,
    series: list[Series],
    title: str,
    y_label: str = "value",
) -> None:
    """Write an SVG line chart of the given series against iteration to
    path, with a log10 y axis.  Raises ValueError when no curve has a
    finite value, or no curve or band edge a finite positive one."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # The finite values of every curve and band edge set the y range;
    # the x range is that of the curves' finite points.
    xs_all, ys_all = [], []
    for s in series:
        edges = () if s.band is None else s.band
        for i, values in enumerate((s.ys, *edges)):
            v = np.asarray(values, dtype=float)
            keep = np.isfinite(v)
            ys_all.append(v[keep])
            if i == 0 and keep.any():
                xs_all.append(np.asarray(s.xs, dtype=float)[keep])
    if not xs_all:
        raise ValueError("nothing to plot: every series is empty")
    ys_all = np.concatenate(ys_all)
    floor = float(ys_all[ys_all > 0].min(initial=math.inf))
    if not math.isfinite(floor):
        raise ValueError("log axis needs at least one positive value")
    # Nonpositive values are clamped to half the smallest positive value,
    # so curves that touch zero stay visible as a floor.
    floor = floor / 2.0

    def ty(values: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(values, floor))

    x_lo = min(float(x.min()) for x in xs_all)
    x_hi = max(float(x.max()) for x in xs_all)
    # Rebound, so that one copy of the values stays alive while the series
    # are drawn: the plot step sets the peak memory of `compare --plot`.
    ys_all = ty(ys_all)
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(t: float) -> float:
        return _MARGIN_T + (1.0 - (t - y_lo) / (y_hi - y_lo)) * plot_h

    def points(xs: np.ndarray, ts: np.ndarray) -> str:
        """SVG points of x values against log10 y values, mapped as
        whole arrays (the per-element operations of px and py)."""
        return " ".join(map("{:.2f},{:.2f}".format, px(xs).tolist(),
                            py(ts).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        '<g font-family="sans-serif" font-size="13" fill="#333333">',
        _element("text", title, x=_WIDTH // 2, y=24, text_anchor="middle",
                 font_size=16),
    ]

    # Gridlines and tick labels.
    for t in _log_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        yy = _fmt(py(t))
        parts.append(_element(
            "line", x1=_MARGIN_L, y1=yy, x2=_WIDTH - _MARGIN_R, y2=yy,
            stroke="#dddddd", stroke_width=1))
        parts.append(_element("text", f"1e{int(round(t))}", x=_MARGIN_L - 8,
                              y=_fmt(py(t) + 4), text_anchor="end"))
    for t in _linear_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        xx = _fmt(px(t))
        parts.append(_element(
            "line", x1=xx, y1=_MARGIN_T, x2=xx, y2=_HEIGHT - _MARGIN_B,
            stroke="#eeeeee", stroke_width=1))
        parts.append(_element("text", _tick_label(t), x=xx,
                              y=_HEIGHT - _MARGIN_B + 20, text_anchor="middle"))

    # Axes.
    parts.append(_element(
        "line", x1=_MARGIN_L, y1=_MARGIN_T, x2=_MARGIN_L,
        y2=_HEIGHT - _MARGIN_B, stroke="#333333", stroke_width=1.5))
    parts.append(_element(
        "line", x1=_MARGIN_L, y1=_HEIGHT - _MARGIN_B, x2=_WIDTH - _MARGIN_R,
        y2=_HEIGHT - _MARGIN_B, stroke="#333333", stroke_width=1.5))
    parts.append(_element("text", "iteration", x=_WIDTH // 2, y=_HEIGHT - 14,
                          text_anchor="middle"))
    mid_y = _fmt(_MARGIN_T + plot_h / 2)
    parts.append(_element("text", y_label, x=20, y=mid_y,
                          text_anchor="middle",
                          transform=f"rotate(-90 20 {mid_y})"))

    # One pass per series; bands go beneath every curve, and the legend
    # sits top right inside the plot area.
    bands, curves, legend = [], [], []
    lx = _WIDTH - _MARGIN_R - 170
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs = np.asarray(s.xs, dtype=float)
        if s.band is not None:
            lower, upper = (np.asarray(e, dtype=float) for e in s.band)
            keep = np.isfinite(lower) & np.isfinite(upper) & np.isfinite(xs)
            if keep.any():
                x = xs[keep]
                # Along the upper edge, then back along the lower one.
                pts = points(np.concatenate([x, x[::-1]]),
                             np.concatenate([ty(upper[keep]),
                                             ty(lower[keep])[::-1]]))
                bands.append(_element("polygon", points=pts, fill=color,
                                      fill_opacity=0.15, stroke="none"))
        ys = np.asarray(s.ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            curves.append(_element(
                "polyline", points=points(xs[keep], ty(ys[keep])),
                fill="none", stroke=color, stroke_width=1.8))
        y0 = _MARGIN_T + 10 + 18 * i
        legend.append(_element("line", x1=lx, y1=y0, x2=lx + 26, y2=y0,
                               stroke=color, stroke_width=2.5))
        legend.append(_element("text", s.label, x=lx + 32, y=y0 + 4))

    parts += [*bands, *curves, *legend, "</g>", "</svg>"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{part}\n" for part in parts)


def std_band(mean: np.ndarray, var: np.ndarray):
    """Mean plus and minus one standard deviation."""
    std = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    m = np.asarray(mean, dtype=float)
    return m - std, m + std
