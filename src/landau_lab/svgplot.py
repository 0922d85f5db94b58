"""Self-contained deterministic SVG line plots.

No external renderer: plots are reproducible text artifacts for humans
inspecting batch runs.  Identical inputs produce byte-identical SVG (no
timestamps, no randomness).  Every package plot is a decay or growth curve:
a log-scale y axis and dashed fit overlays cover its needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Series", "render_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 18, 40, 48
# one canvas size for every artifact plot
_WIDTH, _HEIGHT = 720, 480
# lowest plotted value relative to the plotted maximum: double-precision
# transforms and sums leave roundoff near 1e-16 of the largest value, so
# samples 12 decades down are noise, and letting them set the axis would
# move every tick whenever the roundoff moves
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    color: str | None = None
    dashed: bool = False


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for f in (1.0, 2.0, 5.0, 10.0):
        if raw <= f * mag:
            return f * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = np.ceil(lo / step) * step
    ticks = list(np.arange(first, hi + 1e-9 * step, step))
    return [0.0 if abs(t) < 1e-12 * step else float(t) for t in ticks]


def _log_ticks(lo: float, hi: float) -> list[float]:
    e_lo = int(np.ceil(np.log10(lo) - 1e-9))
    e_hi = int(np.floor(np.log10(hi) + 1e-9))
    if e_hi < e_lo:
        return [lo]
    step = max(1, int(round((e_hi - e_lo) / 6)) or 1)
    return [10.0**e for e in range(e_lo, e_hi + 1, step)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_plot(
    series: Sequence[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: Sequence[tuple[float, str]] = (),
) -> str:
    """Render labelled line series on a log-y axis to a 720 x 480 SVG string.

    Nonpositive y values, and those below 1e-12 of the largest plotted
    value, are dropped; series left with no finite points are skipped.  An
    entirely empty plot stays a valid SVG with a "no data" annotation.
    """
    width, height = _WIDTH, _HEIGHT
    arrays = [(s, np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)) for s in series]
    valid = [np.isfinite(x) & np.isfinite(y) & (y > 0.0) for _, x, y in arrays]
    y_max = max((float(y[ok].max()) for (_, _, y), ok in zip(arrays, valid) if np.any(ok)), default=0.0)
    cleaned: list[tuple[Series, np.ndarray, np.ndarray]] = []
    for (s, x, y), ok in zip(arrays, valid):
        keep = ok & (y >= _LOG_FLOOR * y_max)
        if np.any(keep):
            cleaned.append((s, x[keep], y[keep]))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{_esc(title)}</text>'
        )

    x0, x1 = _MARGIN_L, width - _MARGIN_R
    y0, y1 = height - _MARGIN_B, _MARGIN_T
    if not cleaned:
        out.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#444"/>')
        out.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-size="14" fill="#888">no data</text>'
        )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    xs = np.concatenate([c[1] for c in cleaned])
    ys = np.concatenate([c[2] for c in cleaned])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    for vx, _ in vlines:
        x_lo, x_hi = min(x_lo, vx), max(x_hi, vx)
    if x_hi == x_lo:
        pad = max(0.5, float(np.spacing(abs(x_lo))))  # one ulp where half a unit rounds away
        x_lo, x_hi = x_lo - pad, x_hi + pad
    sx = 1.0 if np.isfinite(x_hi - x_lo) else 0.5  # a span past the largest float: the halved axis
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:  # a decade each way, inside the positive floats
        y_lo, y_hi = max(y_lo / 10.0, 5e-324), min(y_hi * 10.0, float(np.finfo(float).max))
    y_ticks = _log_ticks(y_lo, y_hi)
    ly_lo, ly_hi = np.log10(y_lo), np.log10(y_hi)

    def ypix(v):
        return y0 - (np.log10(v) - ly_lo) / (ly_hi - ly_lo) * (y0 - y1)

    def xpix(v):
        return x0 + (v * sx - x_lo * sx) / (x_hi * sx - x_lo * sx) * (x1 - x0)

    for t in filter(np.isfinite, [tick / sx for tick in _linear_ticks(x_lo * sx, x_hi * sx)]):
        px = xpix(t)
        out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y1}" stroke="#eee"/>')
        out.append(f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" font-size="11">{_fmt(t)}</text>')
    for t in y_ticks:
        py = ypix(t)
        out.append(f'<line x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" stroke="#eee"/>')
        out.append(f'<text x="{x0 - 6}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{_fmt(t)}</text>')

    for vx, label in vlines:
        px = xpix(vx)
        out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y1}" stroke="#999" stroke-dasharray="3,3"/>')
        if label:
            out.append(f'<text x="{px + 3:.2f}" y="{y1 + 12}" font-size="10" fill="#555">{_esc(label)}</text>')

    for i, (s, x, y) in enumerate(cleaned):
        color = s.color or _PALETTE[i % len(_PALETTE)]
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(xpix(x).tolist(), ypix(y).tolist())))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')

    out.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#444"/>')
    if xlabel:
        out.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 10}" text-anchor="middle" font-size="12">{_esc(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_esc(ylabel)}</text>'
        )
    for i, (s, _, _) in enumerate(cleaned):
        color = s.color or _PALETTE[i % len(_PALETTE)]
        ly = y1 + 14 + 14 * i
        out.append(f'<line x1="{x1 - 130}" y1="{ly - 4}" x2="{x1 - 110}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{x1 - 104}" y="{ly}" font-size="11">{_esc(s.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
