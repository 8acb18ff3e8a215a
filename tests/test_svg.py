import math
import re
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspkit import svg as svg_module
from cuspkit.svg import RenderSpec, _viewport, render_svg

SQUARE = [(-1.0, -1.0), (1.0, 1.0)]


@pytest.mark.parametrize("samples", [[(0.0, 0.0)], np.zeros((0, 2)), [(0.0, 0.0, 0.0)] * 3])
def test_rejects_fewer_than_two_samples(samples):
    with pytest.raises(ValueError, match="at least two"):
        render_svg(samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index, column", [(0, 0), (1, 1), (3, 0)])
def test_rejects_a_non_finite_sample_by_index(bad, index, column):
    points = np.arange(10.0).reshape(5, 2)
    points[index, column] = bad
    points[4, 1] = np.nan  # only the first bad sample is named
    with pytest.raises(ValueError, match=f"finite samples, got .* at index {index}$"):
        render_svg(points)


def _axis_lines(svg: str) -> list[str]:
    return [line for line in svg.splitlines() if line.startswith("<line")]


def test_no_axes_unless_asked():
    assert _axis_lines(render_svg(SQUARE)) == []


def test_axes_through_the_origin_in_view():
    svg = render_svg(SQUARE, RenderSpec(width=200, height=100, axes=True))
    assert _axis_lines(svg) == [
        '<line x1="0" y1="50.0" x2="200" y2="50.0" stroke="#bbbbbb" stroke-width="1"/>',
        '<line x1="100.0" y1="0" x2="100.0" y2="100" stroke="#bbbbbb" stroke-width="1"/>',
    ]


@pytest.mark.parametrize(
    "samples, drawn",
    [
        ([(1.0, -1.0), (2.0, 1.0)], 'y1="50.0"'),  # x = 0 out of view: only the x-axis
        ([(-1.0, 1.0), (1.0, 2.0)], 'x1="100.0"'),  # y = 0 out of view: only the y-axis
    ],
)
def test_axis_out_of_view_is_left_out(samples, drawn):
    svg = render_svg(samples, RenderSpec(width=200, height=100, axes=True))
    lines = _axis_lines(svg)
    assert len(lines) == 1
    assert drawn in lines[0]


def test_no_axis_when_the_origin_is_out_of_both_ranges():
    svg = render_svg([(1.0, 1.0), (2.0, 2.0)], RenderSpec(axes=True))
    assert _axis_lines(svg) == []


def _pixels(points, spec):
    """The float pixel coordinates of ``points``, as render_svg computes them."""
    xmin, xmax, ymin, ymax = _viewport(points)
    sx, sy = spec.width / (xmax - xmin), spec.height / (ymax - ymin)
    return [(float((x - xmin) * sx), float((ymax - y) * sy)) for x, y in points]


def _polyline_points(svg: str) -> list[str]:
    """The polyline's printed "x,y" points, from the parsed document."""
    return ET.fromstring(svg).find("{http://www.w3.org/2000/svg}polyline").get("points").split(" ")


# Whole parts of 1-3 digits, of 4-6 digits, and x past 1e6 px (the template).
@pytest.mark.parametrize("width, height", [(300, 200), (4000, 3000), (2_000_000, 10)])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_polyline_matches_a_per_point_loop(scale, width, height):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(500, 2)) * scale
    spec = RenderSpec(width=width, height=height)
    want = " ".join(f"{x:.3f},{y:.3f}" for x, y in _pixels(points, spec))
    assert f'points="{want}"' in render_svg(points, spec)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("centre", [0.0, 1e3])
def test_polyline_is_within_half_a_thousandth_of_a_pixel(scale, centre):
    # centre = 1e3: the data sit a thousand spreads off the origin, so every
    # pixel comes from a difference of two large, close coordinates.
    rng = np.random.default_rng(5)
    points = (rng.normal(size=(400, 2)) + [centre, -centre]) * scale
    spec = RenderSpec(width=300, height=200)
    drawn = _polyline_points(render_svg(points, spec))
    assert len(drawn) == len(points)
    printed = [v for point in drawn for v in point.split(",")]
    pixels = [v for pair in _pixels(points, spec) for v in pair]
    assert all(re.fullmatch(r"-?\d+\.\d{3}", v) for v in printed)
    assert "-0.000" not in printed
    assert max(abs(Fraction(v) - Fraction(p)) for v, p in zip(printed, pixels)) <= Fraction(1, 2000)


def _template(pixels) -> str:
    return (svg_module._PAIR * len(pixels) % tuple(np.ravel(pixels).tolist()))[:-1]


def _kernel_writes(pixels, monkeypatch) -> bool:
    """Whether _fixed_point_pairs writes ``pixels`` itself, not through the template."""
    with monkeypatch.context() as patch:
        patch.setattr(svg_module, "_PAIR", "%.3f;%.3f ")
        return ";" not in svg_module._fixed_point_pairs(pixels)


BELOW_TIE = np.nextafter(0.0625, 0.0)
ABOVE_TIE = np.nextafter(0.0625, 1.0)


# (value, whether the kernel writes it): exact ties of 1000 x and their
# neighbours, zeros of both signs, the least subnormal, integers, and the
# edges of the guard, 1e-6 from a tie and 1e6 px.
@pytest.mark.parametrize(
    "value, kernel",
    [
        (0.0625, False),
        (BELOW_TIE, False),
        (ABOVE_TIE, False),
        (0.1875, False),
        (np.nextafter(0.1875, 1.0), False),
        (999999.9995, False),
        (np.nextafter(999999.9995, 0.0), False),
        (0.0625 + 5e-10, False),
        (0.0625 + 2e-9, True),
        (0.0625 - 2e-9, True),
        (0.0, True),
        (-0.0, False),
        (-1.0, False),
        (5e-324, True),
        (1.0, True),
        (640.0, True),
        (1000.0, True),
        (999999.0, True),
        (999999.9994, True),
        (1e6, False),
    ],
)
def test_pairs_are_the_templates_bytes(value, kernel, monkeypatch):
    pixels = np.array([[value, 2.5], [1.0, value]])
    assert svg_module._fixed_point_pairs(pixels) == _template(pixels)
    assert _kernel_writes(pixels, monkeypatch) == kernel


pixel = st.floats(min_value=-1.0, max_value=2e6, allow_nan=False)


@given(st.lists(st.tuples(pixel, pixel), min_size=1, max_size=40))
@example([(0.0625, 0.1875), (999999.9995, 1.0)])
@example([(BELOW_TIE, ABOVE_TIE)])
@example([(-0.0, 0.0)])
@example([(5e-324, 999999.0)])
@settings(max_examples=300)
def test_pairs_are_the_templates_bytes_for_any_pixels(pairs):
    pixels = np.array(pairs)
    assert svg_module._fixed_point_pairs(pixels) == _template(pixels)


@pytest.mark.parametrize(
    "options, named",
    [
        ({"width": 0}, "width=0"),
        ({"width": -5}, "width=-5"),
        ({"height": 0}, "height=0"),
        ({"height": -480}, "height=-480"),
        ({"stroke_width": 0.0}, "stroke_width=0.0"),
        ({"stroke_width": -1.5}, "stroke_width=-1.5"),
        ({"stroke_width": float("nan")}, "stroke_width=nan"),
        ({"stroke_width": float("inf")}, "stroke_width=inf"),
    ],
)
def test_spec_rejects_an_empty_canvas_or_stroke(options, named):
    with pytest.raises(ValueError, match=f"{named}$") as exc:
        RenderSpec(**options)
    assert "> 0" in str(exc.value)


@pytest.mark.parametrize(
    "options, named, valid",
    [
        ({"width": math.inf}, "width=inf", "finite and > 0"),
        ({"width": math.nan}, "width=nan", "finite and > 0"),
        ({"height": math.inf}, "height=inf", "finite and > 0"),
        ({"height": math.nan}, "height=nan", "finite and > 0"),
        ({"width": 10**400}, f"width={10**400}", "finite and > 0"),
        ({"height": 10**309}, f"height={10**309}", "finite and > 0"),
    ],
)
def test_spec_rejects_non_finite_sizes(options, named, valid):
    # Each used to reach the document as inf or nan coordinates; an integer
    # past the float range used to raise OverflowError.
    with pytest.raises(ValueError, match=f"{re.escape(named)}$") as exc:
        RenderSpec(**options)
    assert valid in str(exc.value)


def test_zero_margin_touches_the_canvas_edges(monkeypatch):
    monkeypatch.setattr(svg_module, "MARGIN", 0.0)
    svg = render_svg([(0.0, 0.0), (2.0, 1.0)], RenderSpec(width=200, height=100))
    assert 'points="0.000,100.000 200.000,0.000"' in svg


@pytest.mark.parametrize("at", [(1e10, 1e10), (-3e-7, 5e4), (1e308, -1e308), (0.0, 0.0)])
def test_coincident_samples_are_drawn_at_the_centre(at):
    # Far from the origin, a fixed span floor fell below one ulp: the padded
    # viewport had width 0 and the polyline read nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        svg = render_svg([at, at, at], RenderSpec(width=200, height=100, axes=True))
    assert _polyline_points(svg) == ["100.000,50.000"] * 3


@pytest.mark.parametrize(
    "samples, extent",
    [
        ([(-1e308, 0.0), (1e308, 1.0)], "x from -1e+308 to 1e+308 and y from 0.0 to 1.0"),
        ([(0.0, 1.0), (1.0, 1.7e308)], "x from 0.0 to 1.0 and y from 1.0 to 1.7e+308"),
    ],
)
def test_an_overflowing_extent_is_a_value_error_naming_it(samples, extent):
    # The first extent overflows; the second overflows once padded.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"padded extent is finite, got {re.escape(extent)}$"):
            render_svg(samples)


def test_the_widest_finite_extents_are_drawn():
    # Each padded extent is finite, though their sum is not.
    svg = render_svg([(-7e307, -7e307), (7e307, 7e307)], RenderSpec(width=200, height=100))
    assert _polyline_points(svg) == ["9.091,95.455", "190.909,4.545"]
