"""CSV writers shared by the analysis verbs of the command-line layer.

Floats are written with 17 significant digits, which round-trips float64
exactly. The analysis types appear here in annotations only, so this
module imports none of their modules at run time.
"""

from __future__ import annotations

import csv
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hallmarks import ScalarSeries
    from .spectral import SpectralSummary


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
    _write_csv(path, ["t", "value", "units"],
               ([t, fmt(v), series.units] for t, v in series.points))


def write_spectrum_csv(summary: SpectralSummary, path) -> None:
    _write_csv(path, [f"eigenvalue_{summary.matrix_id.value}"],
               ([fmt(v)] for v in summary.eigenvalues))

