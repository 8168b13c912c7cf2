"""Deterministic SVG heatmaps for trajectory maps.

Pure string assembly: no image codecs, byte-identical output for
identical inputs and style.
"""

from __future__ import annotations

import math
import re
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

_FRACTIONS = np.array([f for f, _ in STOPS])
_WIDTHS = np.diff(_FRACTIONS)
_COLOURS = np.array([c for _, c in STOPS], dtype=np.float64)
_STEPS = np.diff(_COLOURS, axis=0)  # b - a of each segment, exact
# characters XML 1.0 does not allow in a document, even as references
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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

    def rgb(self, values) -> np.ndarray:
        """The colours of ``values``, as uint8 (r, g, b) along a new last axis.

        The fraction f = (v - v_min) / (v_max - v_min), clamped to [0, 1],
        falls in the first segment of STOPS whose upper stop f1 >= f; each
        channel is round(a + w (b - a)), half to even, with w = (f - f0) /
        (f1 - f0) and a, b that segment's end colours. NaN takes the last
        stop.
        """
        f = (np.asarray(values, dtype=np.float64) - self.v_min) / (self.v_max - self.v_min)
        f = np.where(np.isnan(f), 1.0, np.clip(f, 0.0, 1.0))
        seg = np.searchsorted(_FRACTIONS[1:], f, side="left")
        w = (f - _FRACTIONS[seg]) / _WIDTHS[seg]
        del f
        out = np.take(_STEPS, seg, axis=0)  # a copy, also for a 0-d seg
        out *= w[..., None]
        out += _COLOURS[seg]
        return np.rint(out, out=out).astype(np.uint8)


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
    rgb = style.rgb(m).astype(np.int32)
    packed = (rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]).ravel()
    del rgb
    colours, codes = np.unique(packed, return_inverse=True)
    del packed
    fills = [f'" width="{cp}" height="{cp}" fill="rgb({c >> 16},{c >> 8 & 255},{c & 255})"/>'
             for c in colours.tolist()]
    heads = [f'<rect x="{margin + j * cp}" y="' for j in range(n)]
    for i, row in enumerate(codes.reshape(n, n)):
        y = str(margin + i * cp)
        parts.append("\n".join([head + y + fills[c] for head, c in zip(heads, row.tolist())]))
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
    """Text content for XML: markup characters escaped, and each character
    XML 1.0 forbids replaced by U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text)
