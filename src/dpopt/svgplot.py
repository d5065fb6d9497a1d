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


def _linear_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / count
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


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def line_plot(
    path: str,
    series: list[Series],
    title: str,
    y_label: str = "value",
) -> None:
    """Write an SVG line chart of the given series against iteration to
    path, with a log10 y axis."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Collect plottable points.  Nonpositive values are clamped to half
    # the smallest positive value so curves that touch zero stay visible
    # as a floor instead of vanishing.
    floor = math.inf
    xs_all, ys_all = [], []
    for s in series:
        ys = np.asarray(s.ys, dtype=float)
        finite = np.isfinite(ys)
        pos = ys[finite & (ys > 0)]
        if pos.size:
            floor = min(floor, float(pos.min()))
        if finite.any():
            ys_all.append(ys[finite])
            xs_all.append(np.asarray(s.xs, dtype=float)[finite])
        if s.band is not None:
            for edge in s.band:
                e = np.asarray(edge, dtype=float)
                keep = np.isfinite(e)
                pos = e[keep & (e > 0)]
                if pos.size:
                    floor = min(floor, float(pos.min()))
                if keep.any():
                    ys_all.append(e[keep])
    if not xs_all:
        raise ValueError("nothing to plot: every series is empty")
    if not math.isfinite(floor):
        raise ValueError("log axis needs at least one positive value")
    floor = floor / 2.0

    def ty(values: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(values, floor))

    x_lo = min(float(x.min()) for x in xs_all)
    x_hi = max(float(x.max()) for x in xs_all)
    t_all = np.concatenate([ty(y) for y in ys_all])
    y_lo, y_hi = float(t_all.min()), float(t_all.max())
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

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        '<g font-family="sans-serif" font-size="13" fill="#333333">'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="16">{_escape(title)}</text>'
    )

    # Gridlines and tick labels.
    for t in _log_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        yy = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(yy)}" '
            f'x2="{_WIDTH - _MARGIN_R}" y2="{_fmt(yy)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(yy + 4)}" '
            f'text-anchor="end">1e{int(round(t))}</text>'
        )
    for t in _linear_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        xx = px(t)
        parts.append(
            f'<line x1="{_fmt(xx)}" y1="{_MARGIN_T}" '
            f'x2="{_fmt(xx)}" y2="{_HEIGHT - _MARGIN_B}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xx)}" y="{_HEIGHT - _MARGIN_B + 20}" '
            f'text-anchor="middle">{_tick_label(t)}</text>'
        )

    # Axes.
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 14}" '
        'text-anchor="middle">iteration</text>'
    )
    mid_y = _MARGIN_T + plot_h / 2
    parts.append(
        f'<text x="20" y="{_fmt(mid_y)}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_fmt(mid_y)})">{_escape(y_label)}</text>'
    )

    # Bands beneath their curves.
    for i, s in enumerate(series):
        if s.band is None:
            continue
        color = PALETTE[i % len(PALETTE)]
        lower, upper = s.band
        xs = np.asarray(s.xs, dtype=float)
        lo_v = np.asarray(lower, dtype=float)
        hi_v = np.asarray(upper, dtype=float)
        keep = np.isfinite(lo_v) & np.isfinite(hi_v) & np.isfinite(xs)
        if not keep.any():
            continue
        xs, lo_v, hi_v = xs[keep], lo_v[keep], hi_v[keep]
        pts = []
        for x, v in zip(xs, ty(hi_v)):
            pts.append(f"{_fmt(px(x))},{_fmt(py(v))}")
        for x, v in zip(xs[::-1], ty(lo_v)[::-1]):
            pts.append(f"{_fmt(px(x))},{_fmt(py(v))}")
        parts.append(
            f'<polygon points="{" ".join(pts)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )

    # Curves.
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs = np.asarray(s.xs, dtype=float)
        ys = np.asarray(s.ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if not keep.any():
            continue
        pts = " ".join(
            f"{_fmt(px(x))},{_fmt(py(v))}"
            for x, v in zip(xs[keep], ty(ys[keep]))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )

    # Legend, top right inside the plot area.
    lx = _WIDTH - _MARGIN_R - 170
    lyy = _MARGIN_T + 10
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y0 = lyy + 18 * i
        parts.append(
            f'<line x1="{lx}" y1="{y0}" x2="{lx + 26}" y2="{y0}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{y0 + 4}">{_escape(s.label)}</text>'
        )

    parts.append("</g>")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")


def std_band(mean: np.ndarray, var: np.ndarray):
    """Mean plus and minus one standard deviation."""
    std = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    m = np.asarray(mean, dtype=float)
    return m - std, m + std
