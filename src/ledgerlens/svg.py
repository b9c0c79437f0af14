"""Minimal native SVG charts (lines and boxplots).

Charts are written directly as SVG text with fixed float formatting so a
given input always produces byte-identical files.  This is a reporting
convenience; CSV remains the canonical output.
"""

import contextlib
import math
import sys
from typing import Sequence

import numpy as np

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0
_WIDTH = 880
_HEIGHT = 460
# Outlier circles drawn per box, smallest values first.
_MAX_FLIERS = 50


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, target)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:
            # A step below half an ULP of t would never move it, as on a
            # span a few ULPs wide.
            break
        t += step
    return ticks


class _Canvas:
    def __init__(self, title: str, meta: str = ""):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        ]
        if meta:
            self.parts.append(f"<!-- {meta} -->")
        self.parts += [
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]

    def line(self, x1, y1, x2, y2, color="#444", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=10, anchor="middle", color="#222"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" fill="{color}">{s}</text>'
        )

    def polyline(self, points: list[tuple[float, float]], color: str):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def rect(self, x, y, w, h, fill="none", stroke="#222"):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def circle(self, x, y, r=2.0, color="#666"):
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="none" stroke="{color}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def open_output(path: str):
    """Context manager for a text output file; `-` is standard output."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _frame(c: _Canvas, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    """Draw axes plus ticks; returns (sx, sy) data-to-pixel mappers."""
    px_lo, px_hi = _MARGIN_L, _WIDTH - _MARGIN_R
    py_lo, py_hi = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(v: float) -> float:
        return px_lo + (v - x_lo) / (x_hi - x_lo) * (px_hi - px_lo)

    def sy(v: float) -> float:
        return py_lo + (v - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    c.line(px_lo, py_lo, px_hi, py_lo)
    c.line(px_lo, py_lo, px_lo, py_hi)
    for t in _nice_ticks(x_lo, x_hi):
        c.line(sx(t), py_lo, sx(t), py_lo + 4)
        c.text(sx(t), py_lo + 16, _fmt(t))
    for t in _nice_ticks(y_lo, y_hi):
        c.line(px_lo - 4, sy(t), px_lo, sy(t))
        c.text(px_lo - 8, sy(t) + 3, _fmt(t), anchor="end")
        c.line(px_lo, sy(t), px_hi, sy(t), color="#eee", width=0.5)
    c.text((px_lo + px_hi) / 2, _HEIGHT - 8, x_label, size=11)
    c.text(14, (py_lo + py_hi) / 2, y_label, size=11, anchor="middle")
    return sx, sy


def line_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    path: str,
    title: str,
    x_label: str = "day",
    y_label: str = "value",
    meta: str = "",
) -> None:
    """Write a multi-series line chart (`-` for standard output); series
    maps label -> (xs, ys)."""
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys if not math.isnan(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    c = _Canvas(title, meta)
    sx, sy = _frame(c, x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = [
            (sx(float(x)), sy(float(y)))
            for x, y in zip(xs, ys)
            if not math.isnan(float(y))
        ]
        if pts:
            c.polyline(pts, color)
        c.text(_WIDTH - _MARGIN_R - 4, _MARGIN_T + 12 + 13 * i, label,
               anchor="end", color=color)
    with open_output(path) as fp:
        fp.write(c.render())


def box_plot(
    groups: list[tuple[str, Sequence[float]]],
    path: str,
    title: str,
    x_label: str = "group",
    y_label: str = "value",
    meta: str = "",
) -> None:
    """Write boxplots (quartile boxes, 1.5*IQR whiskers, outlier circles);
    `-` is standard output."""
    vals_all = [v for _, vs in groups for v in vs]
    if not vals_all:
        vals_all = [0.0, 1.0]
    y_lo, y_hi = min(vals_all), max(vals_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    c = _Canvas(title, meta)
    px_lo, px_hi = _MARGIN_L, _WIDTH - _MARGIN_R
    py_lo, py_hi = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sy(v: float) -> float:
        return py_lo + (v - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    c.line(px_lo, py_lo, px_hi, py_lo)
    c.line(px_lo, py_lo, px_lo, py_hi)
    for t in _nice_ticks(y_lo, y_hi):
        c.line(px_lo - 4, sy(t), px_lo, sy(t))
        c.text(px_lo - 8, sy(t) + 3, _fmt(t), anchor="end")
        c.line(px_lo, sy(t), px_hi, sy(t), color="#eee", width=0.5)

    slot = (px_hi - px_lo) / max(1, len(groups))
    box_w = min(36.0, slot * 0.5)
    for i, (label, vs) in enumerate(groups):
        cx = px_lo + slot * (i + 0.5)
        c.text(cx, py_lo + 16, label, size=9)
        if not len(vs):
            continue
        arr = np.asarray(list(vs), dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo_bound, hi_bound = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = arr[(arr >= lo_bound) & (arr <= hi_bound)]
        w_lo = float(inside.min()) if len(inside) else float(q1)
        w_hi = float(inside.max()) if len(inside) else float(q3)
        c.rect(cx - box_w / 2, sy(q3), box_w, sy(q1) - sy(q3), stroke="#1f77b4")
        c.line(cx - box_w / 2, sy(med), cx + box_w / 2, sy(med), color="#d62728", width=1.5)
        c.line(cx, sy(q1), cx, sy(w_lo))
        c.line(cx, sy(q3), cx, sy(w_hi))
        c.line(cx - box_w / 4, sy(w_lo), cx + box_w / 4, sy(w_lo))
        c.line(cx - box_w / 4, sy(w_hi), cx + box_w / 4, sy(w_hi))
        fliers = np.sort(arr[(arr < lo_bound) | (arr > hi_bound)])[:_MAX_FLIERS]
        for v in fliers:
            c.circle(cx, sy(float(v)))
    c.text((px_lo + px_hi) / 2, _HEIGHT - 8, x_label, size=11)
    c.text(14, (py_lo + py_hi) / 2, y_label, size=11)
    with open_output(path) as fp:
        fp.write(c.render())
