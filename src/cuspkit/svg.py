"""Plain SVG 1.1 output: one stroked polyline through sample points.

The polyline's pixel coordinates are written in fixed point with
``DECIMALS`` = 3 decimals: each printed value is the correctly rounded
decimal of the float pixel coordinate, so it is off by at most half a
thousandth of a pixel, which no renderer shows.  The viewport holds every
sample, so no coordinate is negative.  The axis lines and the stroke width
keep their shortest round-trip repr.  The samples themselves (the CSVs) keep
full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DECIMALS = 3
_PAIR = f"%.{DECIMALS}f,%.{DECIMALS}f "
MARGIN = 0.05  # the viewport's padding, as a fraction of the data extent
_MIN_SPAN = 1e-12  # the least data extent, as a fraction of the largest |coordinate|


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size in pixels, polyline stroke width and axes.

    Raises ``ValueError``, naming the field, its value and the valid range,
    unless width, height and stroke width are finite and > 0.
    """

    width: int = 640
    height: int = 480
    stroke_width: float = 1.5
    axes: bool = False

    def __post_init__(self):
        for name in ("width", "height", "stroke_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
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
    coords = (_PAIR * len(pixels) % tuple(pixels.ravel().tolist()))[:-1]
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
