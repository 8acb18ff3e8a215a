"""Plain SVG 1.1 output: one stroked polyline through sample points.

The polyline's pixel coordinates are written in fixed point with
``DECIMALS`` = 3 decimals: each printed value is the correctly rounded
decimal of the float pixel coordinate, so it is off by at most half a
thousandth of a pixel, which no renderer shows.  ``-0.000`` is written as
``0.000``.  The axis lines and the stroke width keep their shortest
round-trip repr.  The samples themselves (the CSVs) keep full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DECIMALS = 3
_PAIR = f"%.{DECIMALS}f,%.{DECIMALS}f "
# A value below this in magnitude prints as 0.000 or -0.000, so zeroing it
# first changes no digit and drops the sign.
_PRINTS_AS_ZERO = 0.5 * 10.0**-DECIMALS
MARGIN = 0.05  # an auto-fit viewport's padding, as a fraction of the data extent


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size in pixels, polyline stroke width, axes and viewport.

    Raises ``ValueError``, naming the field, its value and the valid range,
    unless width, height and stroke width are finite and > 0 and the
    viewport, if given, has four finite bounds with xmin < xmax and
    ymin < ymax.
    """

    width: int = 640
    height: int = 480
    stroke_width: float = 1.5
    axes: bool = False
    viewport: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        for name in ("width", "height", "stroke_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SVG {name} must be finite and > 0, got {name}={value!r}")
        if self.viewport is not None:
            if len(self.viewport) != 4 or not all(map(math.isfinite, self.viewport)):
                raise ValueError(
                    "SVG viewport must be four finite bounds (xmin, xmax, ymin, ymax), "
                    f"got viewport={self.viewport!r}"
                )
            xmin, xmax, ymin, ymax = self.viewport
            if xmin >= xmax or ymin >= ymax:
                raise ValueError(
                    "viewport must satisfy xmin < xmax and ymin < ymax, "
                    f"got viewport={self.viewport!r}"
                )


def _viewport(points: np.ndarray, spec: RenderSpec) -> tuple[float, float, float, float]:
    if spec.viewport is not None:
        return spec.viewport
    xmin, ymin = points.min(axis=0)
    xmax, ymax = points.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-30)
    pad = MARGIN * span
    return xmin - pad, xmax + pad, ymin - pad, ymax + pad


def render_svg(samples, spec: RenderSpec | None = None) -> str:
    """Render (x, y) samples as a standalone SVG document string.

    The viewport auto-fits the data with a ``MARGIN`` unless given explicitly;
    the y-axis points up (mathematical orientation).  The polyline's pixel
    coordinates are printed to ``DECIMALS`` decimals.  Raises ``ValueError``
    for fewer than two samples or for a sample that is not finite.
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
    xmin, xmax, ymin, ymax = _viewport(points, spec)
    sx = spec.width / (xmax - xmin)
    sy = spec.height / (ymax - ymin)

    pixels = np.empty_like(points)
    pixels[:, 0] = (points[:, 0] - xmin) * sx
    pixels[:, 1] = (ymax - points[:, 1]) * sy
    pixels[np.abs(pixels) < _PRINTS_AS_ZERO] = 0.0
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
