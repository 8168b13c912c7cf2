"""CSV/JSON serializers shared by the command-line layer.

Floats are written with 17 significant digits, which round-trips float64
exactly. The analysis types appear here in annotations only, so this
module imports none of their modules at run time: the ``theory`` verb
writes its JSON without loading the store and Gram code.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hallmarks import ScalarSeries
    from .spectral import SpectralSummary
    from .theory import AlignmentCurve


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(matrix: np.ndarray, labels: list[str], path) -> None:
    _write_csv(path, labels, ([fmt(v) for v in row] for row in np.asarray(matrix)))


def write_series_csv(series: ScalarSeries, path) -> None:
    units = series.units.value
    _write_csv(path, ["t", "value", "units"], ([t, fmt(v), units] for t, v in series.points))


def write_spectrum_csv(summary: SpectralSummary, path) -> None:
    _write_csv(path, [f"eigenvalue_{summary.matrix_id.value}"],
               ([fmt(v)] for v in summary.eigenvalues))


def alignment_json(curve: AlignmentCurve) -> dict:
    """The curve as JSON; an undefined (NaN) slope is null, as JSON has no NaN."""
    slope = curve.fitted_loglog_slope
    return {
        "points": [
            {"width": w, "cos": c, "one_minus_cos": om} for w, c, om in curve.points
        ],
        "fitted_loglog_slope": None if math.isnan(slope) else slope,
    }
