"""Deterministic SVG rendering."""

import re

import numpy as np
import pytest

from landau_lab import svgplot
from landau_lab.svgplot import (_HEIGHT, _LOG_FLOOR, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH, Series,
                                render_plot)


def polyline_points(svg: str) -> list[np.ndarray]:
    out = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        pts = np.array([[float(a) for a in pair.split(",")] for pair in m.group(1).split()])
        out.append(pts)
    return out


def test_exponential_is_straight_on_log_axis():
    t = np.linspace(0.0, 10.0, 101)
    svg = render_plot([Series(label="decay", x=t, y=np.exp(-0.7 * t))])
    pts = polyline_points(svg)[0]
    x, y = pts[:, 0], pts[:, 1]
    slope = (y[-1] - y[0]) / (x[-1] - x[0])
    fitted = y[0] + slope * (x - x[0])
    assert np.max(np.abs(y - fitted)) < 0.02 * (y.max() - y.min())


def test_empty_series_yields_no_data_annotation():
    svg = render_plot([], title="empty")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "no data" in svg


def test_nonpositive_values_dropped_on_log_axis():
    svg = render_plot([Series(label="bad", x=[0, 1, 2], y=[0.0, -1.0, 0.0])])
    assert "no data" in svg


def test_sub_floor_samples_leave_the_svg_unchanged():
    # roundoff far below the peak must neither set the log axis nor move its ticks
    t = np.arange(10.0)
    # an echo timeline: the initial mode, its decay, then the echo at 6e-6
    peak = [5e-4, 3e-5, 1e-6, 4e-7, 1e-6, 6e-6, 2e-6, 1e-6, 4e-6]

    def svg(roundoff):
        return render_plot([Series(label="|rho|", x=t, y=peak[:4] + [roundoff] + peak[4:])], title="echo")

    base = svg(1e-17)
    assert svg(3e-19) == base and svg(5e-18) == base
    assert len(polyline_points(base)[0]) == 9
    # the axis starts at the smallest kept sample, not at the roundoff
    assert ">1e-06<" in base and "e-1" not in base


def test_render_is_deterministic():
    series = [Series(label="a", x=[0, 1, 2, 3], y=[1.0, 0.5, 0.25, 0.125])]
    a = render_plot(series, title="t", xlabel="x", ylabel="y")
    b = render_plot(series, title="t", xlabel="x", ylabel="y")
    assert a == b


def test_vlines_and_escaping():
    svg = render_plot(
        [Series(label="<amp&>", x=[0, 1], y=[1.0, 2.0])],
        vlines=[(0.5, "mark<1>")],
        title="a & b",
    )
    assert "stroke-dasharray" in svg
    assert "&amp;" in svg and "&lt;" in svg
    assert "<amp" not in svg.replace("&lt;amp", "")


def test_single_point_and_flat_series_render():
    svg = render_plot([Series(label="p", x=[1.0], y=[2.0])])
    assert "polyline" in svg
    svg2 = render_plot([Series(label="flat", x=[0, 1], y=[3.0, 3.0])])
    assert "polyline" in svg2


def scalar_polylines(series, vlines=()) -> list[str]:
    """The polyline point lists one sample at a time: ``xpix``/``ypix`` of NumPy scalars, each to two decimals."""
    x0, x1, y0, y1 = _MARGIN_L, _WIDTH - _MARGIN_R, _HEIGHT - _MARGIN_B, _MARGIN_T
    arrays = [(np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)) for s in series]
    ok = [np.isfinite(x) & np.isfinite(y) & (y > 0.0) for x, y in arrays]
    y_max = max(float(y[m].max()) for (_, y), m in zip(arrays, ok) if m.any())
    kept = [(x[m & (y >= _LOG_FLOOR * y_max)], y[m & (y >= _LOG_FLOOR * y_max)]) for (x, y), m in zip(arrays, ok)]
    kept = [(x, y) for x, y in kept if len(x)]
    xs, ys = np.concatenate([x for x, _ in kept]), np.concatenate([y for _, y in kept])
    x_lo, x_hi = min([float(xs.min())] + [v for v, _ in vlines]), max([float(xs.max())] + [v for v, _ in vlines])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo / 10.0, y_hi * 10.0
    ly_lo, ly_hi = np.log10(y_lo), np.log10(y_hi)
    return [" ".join(f"{x0 + (a - x_lo) / (x_hi - x_lo) * (x1 - x0):.2f},"
                     f"{y0 - (np.log10(b) - ly_lo) / (ly_hi - ly_lo) * (y0 - y1):.2f}" for a, b in zip(x, y))
            for x, y in kept]


@pytest.mark.parametrize("series, vlines", [
    ([Series(label="edge", x=[-0.0, 1e-300, 0.5, 1.0, np.nan, 2.0, np.inf, 3.0],
             y=[5e-324, 1e-320, 2.5e-322, np.inf, 1.0, -1.0, 3e-321, 7e-323])], ()),
    ([Series(label="big", x=[-1e300, 0.0, 1e300], y=[1.7e308, 5e299, 3e296])], ()),
    ([Series(label="a", x=np.linspace(0.0, 42.0, 2051), y=np.exp(-0.3 * np.linspace(0.0, 42.0, 2051))),
      Series(label="b", x=np.linspace(0.0, 42.0, 673), y=np.abs(np.sin(np.linspace(0.0, 42.0, 673))) * 1e-3,
             dashed=True)], [(-3.0, "before"), (50.0, "after")]),
    ([Series(label="flat", x=[2.0, 2.0], y=[3.0, 3.0]), Series(label="dropped", x=[1.0], y=[0.0])], ()),
], ids=["subnormal", "extreme", "curves", "degenerate"])
def test_polyline_points_match_the_scalar_formatting(series, vlines):
    assert ["".join(p) for p in re.findall(r'<polyline points="([^"]+)"', render_plot(series, vlines=vlines))] \
        == scalar_polylines(series, vlines)


def test_render_takes_as_many_log10_calls_for_2000_points_as_for_20(monkeypatch):
    log10, calls = np.log10, []

    def counting_log10(*args, **kwargs):
        calls.append(1)
        return log10(*args, **kwargs)

    monkeypatch.setattr(np, "log10", counting_log10)
    counts = []
    for n in (20, 2000):
        t = np.linspace(0.0, 10.0, n)
        calls.clear()
        svgplot.render_plot([Series(label="decay", x=t, y=np.exp(-0.7 * t))])
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [1e308, 1e308]),
    ([-1e308, 1e308], [1.0, 2.0]),
    ([0.0, 1.0], [5e-324, 5e-324]),
    ([1e17, 1e17], [1.0, 2.0]),
], ids=["flat-y-near-overflow", "x-span-past-max-float", "flat-y-subnormal", "flat-x-past-2**53"])
def test_extreme_values_render_on_the_frame(x, y):
    # the decade pad of a flat y, the x span and the half-unit pad of a flat x
    # each leave the floats here unless the axis guards them
    svg = render_plot([Series(label="s", x=x, y=y)])
    coords = [float(v) for v in re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]+)"', svg)]
    coords += [float(v) for p in re.findall(r'<polyline points="([^"]+)"', svg) for v in re.split("[ ,]", p)]
    assert coords and all(np.isfinite(coords))
    pts = polyline_points(svg)[0]
    assert np.all((_MARGIN_L <= pts[:, 0]) & (pts[:, 0] <= _WIDTH - _MARGIN_R))
    assert np.all((_MARGIN_T <= pts[:, 1]) & (pts[:, 1] <= _HEIGHT - _MARGIN_B))
    assert "inf" not in svg and "nan" not in svg


def tick_label_xs(svg: str) -> list[float]:
    """x positions of the x-axis tick labels (the labels under the frame)."""
    return [float(x) for x in re.findall(rf'<text x="([^"]+)" y="{_HEIGHT - _MARGIN_B + 18}"', svg)]


@pytest.mark.parametrize("x", [[0.0, 4.6], [0.0, 5.0], [0.0, 9.9], [-3.3, 0.7], [0.1, 0.30000000000000004]])
def test_x_ticks_stay_inside_the_frame(x):
    # an axis top past the middle of its last step drew a tick beyond the
    # frame (tick 5 at x = 756.78 for [0, 4.6]); a top on a tick keeps it
    xs = tick_label_xs(render_plot([Series(label="a", x=x, y=[1.0, 2.0])]))
    assert xs and all(_MARGIN_L - 1e-9 <= v <= _WIDTH - _MARGIN_R + 1e-9 for v in xs)
    if x[1] in (5.0, 0.30000000000000004):
        assert max(xs) == pytest.approx(_WIDTH - _MARGIN_R, abs=0.01)
