"""The one angle rule: every cosine and angle trajkit reports from inner
products a.b, a.a and b.b.

A vector is degenerate when ``not (a.a >= TINY)``, the smallest normal
float64: it is zero, or its square underflowed. Any nonzero vector whose
square is normal gives a cosine with normal operands, whatever its scale,
so a trajectory scaled by a power of two keeps its angles bit for bit.
"""

import math
import sys

from .errors import DegenerateVector

TINY = sys.float_info.min
DEGENERATE = "is zero, or its square underflows float64"


def cosine(ab: float, aa: float, bb: float) -> float:
    """a.b / (|a| |b|), clamped to [-1, 1]."""
    if not (aa >= TINY and bb >= TINY):
        raise DegenerateVector(f"a vector {DEGENERATE} (a.a = {aa!r}, b.b = {bb!r})")
    return max(-1.0, min(1.0, ab / (math.sqrt(aa) * math.sqrt(bb))))


def angle_degrees(ab: float, aa: float, bb: float) -> float:
    """Angle between a and b in degrees."""
    return math.degrees(math.acos(cosine(ab, aa, bb)))
