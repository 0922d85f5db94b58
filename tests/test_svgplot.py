"""Deterministic SVG rendering."""

import re

import numpy as np

from landau_lab.svgplot import Series, render_plot


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
