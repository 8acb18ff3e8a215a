"""Plain SVG 1.1 output: one stroked polyline through sample points.

The polyline's pixel coordinates are written in fixed point with
``DECIMALS`` = 3 decimals: each printed value is the correctly rounded
decimal of the float pixel coordinate, so it is off by at most half a
thousandth of a pixel, which no renderer shows.  The viewport holds every
sample, so no coordinate is negative.  The axis lines and the stroke width
keep their shortest round-trip repr.  The samples themselves (the CSVs) keep
full precision.

The reference for the pairs is the ``_PAIR`` template, one call of the
float formatter per value.  ``_fixed_point_pairs`` writes the same bytes in
one numpy pass: the integer q = rint(1000 x) is split into whole part and
thousandths, each looked up as three digits in ``_WORDS``, with leading
zeros as NUL bytes that one boolean mask drops.  (``bytes.translate``
drops them as fast, but over a long run its results raised the resident
memory by about 1.5 MB.)  q is the correctly rounded decimal whenever
1000 x is below 1e9 and more than 1e-6 from a half-integer, as the
product's own rounding error is below 6e-8 there.  Every other array goes
through the template: one with a value near a tie, one of 1e6 px or more,
and one with a negative value, -0.0 among them (the sign bit is tested,
since -0.0 >= 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DECIMALS = 3
_PAIR = f"%.{DECIMALS}f,%.{DECIMALS}f "


def _digit_words() -> np.ndarray:
    """Five blocks of 1000 four-byte words; row ``k + i`` holds i's three digits and a tail.

    Block 0: i without leading zeros, 0 as three NULs, tail NUL (the whole
    part's thousands); 1000: i without leading zeros but its last, tail "."
    (a whole part below 1000); 2000: all three digits, tail "."; 3000 and
    4000: all three digits, tail "," or " " (the thousandths of x or y).
    """
    i = np.arange(1000)
    digits = np.stack([i // 100, i // 10 % 10, i % 10], axis=1) + ord("0")
    bare = digits * np.stack([i >= 100, i >= 10, i >= 0], axis=1)
    thousands = digits * np.stack([i >= 100, i >= 10, i >= 1], axis=1)
    blocks = (thousands, bare, digits, digits, digits)
    rows = [np.column_stack([d, np.full(1000, tail)]) for d, tail in zip(blocks, b"\0.., ")]
    return np.concatenate(rows).astype(np.uint8).view(np.uint32).ravel()


_WORDS = _digit_words()
_FRACTION_ROWS = np.array([3000.0, 4000.0])  # the x and y blocks of _WORDS


def _fixed_point_pairs(pixels: np.ndarray) -> str:
    """The "x,y" pairs of (n, 2) pixel coordinates, as ``_PAIR`` writes them, space-separated."""
    if not np.signbit(pixels).any() and pixels.max() < 1e6:
        scaled = pixels * 1000.0
        q = np.rint(scaled)
        if q.max() < 1e9 and not (np.abs(np.abs(scaled - q) - 0.5) <= 1e-6).any():
            whole = np.floor(q / 1000.0)
            thousands = np.floor(whole / 1000.0)
            below = whole - 1000.0 * thousands + np.where(thousands > 0, 2000.0, 1000.0)
            words = [below, q - 1000.0 * whole + _FRACTION_ROWS]
            if thousands.any():
                words.insert(0, thousands)
            chars = _WORDS[np.stack(words, axis=-1).astype(np.intp)].view(np.uint8)
            chars[-1, -1, -1] = 0  # the space after the last pair
            return chars[chars != 0].tobytes().decode("ascii")
    return (_PAIR * len(pixels) % tuple(pixels.ravel().tolist()))[:-1]


MARGIN = 0.05  # the viewport's padding, as a fraction of the data extent
_MIN_SPAN = 1e-12  # the least data extent, as a fraction of the largest |coordinate|


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size in pixels, polyline stroke width and axes.

    Raises ``ValueError``, naming the field, its value and the valid range,
    unless width, height and stroke width are finite and > 0; an integer
    past the float range counts as not finite.
    """

    width: int = 640
    height: int = 480
    stroke_width: float = 1.5
    axes: bool = False

    def __post_init__(self):
        for name in ("width", "height", "stroke_width"):
            value = getattr(self, name)
            try:
                valid = math.isfinite(value) and value > 0
            except OverflowError:
                valid = False
            if not valid:
                raise ValueError(f"SVG {name} must be finite and > 0, got {name}={value!r}")


def _viewport(points: np.ndarray) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax): the samples' box, padded by ``MARGIN`` of its larger extent.

    That extent counts as at least ``_MIN_SPAN`` of the largest |coordinate|
    (and 1e-30), so that samples that all coincide, also far from the
    origin, get a viewport some thousand ulps wide with them at its centre.
    Raises ``ValueError`` naming the samples' extent when the padded width
    or height overflows a float.
    """
    xmin, ymin = points.min(axis=0).tolist()
    xmax, ymax = points.max(axis=0).tolist()
    magnitude = max(-xmin, xmax, -ymin, ymax)
    span = max(xmax - xmin, ymax - ymin, 1e-30, _MIN_SPAN * magnitude)
    pad = MARGIN * span
    box = xmin - pad, xmax + pad, ymin - pad, ymax + pad
    if not (math.isfinite(box[1] - box[0]) and math.isfinite(box[3] - box[2])):
        raise ValueError(
            "render_svg needs samples whose padded extent is finite, got x from "
            f"{xmin!r} to {xmax!r} and y from {ymin!r} to {ymax!r}"
        )
    return box


def render_svg(samples, spec: RenderSpec | None = None) -> str:
    """Render (x, y) samples as a standalone SVG document string.

    The viewport fits the data with a ``MARGIN``; the y-axis points up
    (mathematical orientation).  The polyline's pixel coordinates are
    printed to ``DECIMALS`` decimals.  Raises ``ValueError`` for fewer
    than two samples, for a sample that is not finite and for samples whose
    padded extent overflows a float.
    """
    spec = spec or RenderSpec()
    points = np.atleast_2d(np.asarray(samples, dtype=float))
    if points.shape[0] < 2 or points.shape[1] != 2:
        raise ValueError("render_svg needs at least two (x, y) samples")
    bad = ~np.all(np.isfinite(points), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        x, y = points[i].tolist()
        raise ValueError(f"render_svg needs finite samples, got ({x!r}, {y!r}) at index {i}")
    xmin, xmax, ymin, ymax = _viewport(points)
    sx = spec.width / (xmax - xmin)
    sy = spec.height / (ymax - ymin)

    pixels = np.empty_like(points)
    pixels[:, 0] = (points[:, 0] - xmin) * sx
    pixels[:, 1] = (ymax - points[:, 1]) * sy
    coords = _fixed_point_pairs(pixels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
    ]
    if spec.axes:
        x0, y0 = float((0.0 - xmin) * sx), float((ymax - 0.0) * sy)
        if 0.0 <= y0 <= spec.height:
            parts.append(
                f'<line x1="0" y1="{y0!r}" x2="{spec.width}" y2="{y0!r}" '
                'stroke="#bbbbbb" stroke-width="1"/>'
            )
        if 0.0 <= x0 <= spec.width:
            parts.append(
                f'<line x1="{x0!r}" y1="0" x2="{x0!r}" y2="{spec.height}" '
                'stroke="#bbbbbb" stroke-width="1"/>'
            )
    parts.append(
        f'<polyline fill="none" stroke="#000000" stroke-width="{spec.stroke_width!r}" '
        f'points="{coords}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
