"""Deterministic SVG heatmaps for trajectory maps.

Pure string assembly: no image codecs, byte-identical output for
identical inputs and style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStyle

# value fraction -> RGB, interpolated linearly between stops
STOPS = (
    (0.00, (255, 255, 255)),
    (0.25, (199, 199, 229)),
    (0.50, (140, 140, 203)),
    (0.75, (81, 81, 177)),
    (1.00, (23, 23, 151)),
)
CELL_PX = 12
FONT_PX = 10


@dataclass
class HeatmapStyle:
    v_min: float = -1.0
    v_max: float = 1.0

    def __post_init__(self):
        # rgb() divides by the span: an infinite or NaN one gives NaN or 0
        # fractions, which would paint every cell one colour
        if not math.isfinite(self.v_max - self.v_min):
            raise InvalidStyle(
                f"v_min {self.v_min} and v_max {self.v_max} must be finite, "
                "and so must v_max - v_min"
            )
        if not self.v_min < self.v_max:
            raise InvalidStyle(f"v_min {self.v_min} must be < v_max {self.v_max}")

    def rgb(self, value: float) -> tuple[int, int, int]:
        span = self.v_max - self.v_min
        f = min(max((value - self.v_min) / span, 0.0), 1.0)
        for (f0, c0), (f1, c1) in zip(STOPS[:-1], STOPS[1:]):
            if f <= f1:
                w = (f - f0) / (f1 - f0)
                return tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
        return STOPS[-1][1]


def render_svg(matrix: np.ndarray, labels: list[str], style: HeatmapStyle | None = None) -> str:
    """n x n heatmap with row/column labels taken from the point labels."""
    style = style or HeatmapStyle()
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    cp, font = CELL_PX, FONT_PX
    margin = 6 * font  # label gutter left and top
    size = margin + n * cp
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    parts.append('<g shape-rendering="crispEdges">')
    for i in range(n):
        for j in range(n):
            r, g, b = style.rgb(float(m[i, j]))
            parts.append(
                f'<rect x="{margin + j * cp}" y="{margin + i * cp}" '
                f'width="{cp}" height="{cp}" fill="rgb({r},{g},{b})"/>'
            )
    parts.append("</g>")
    parts.append(f'<g font-family="monospace" font-size="{font}" fill="black">')
    for i, label in enumerate(labels):
        y = margin + i * cp + (cp + font) // 2
        parts.append(f'<text x="2" y="{y}" text-anchor="start">{_esc(label)}</text>')
        x = margin + i * cp + cp // 2
        parts.append(
            f'<text x="{x}" y="{margin - 4}" text-anchor="end" '
            f'transform="rotate(-90 {x} {margin - 4})">{_esc(label)}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
