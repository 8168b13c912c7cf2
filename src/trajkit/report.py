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


_FLOAT = "%.17g"


def fmt(x: float) -> str:
    return _FLOAT % float(x)


def _write_csv(path, header: list, lines) -> None:
    """The header goes through csv.writer, since labels may need quoting;
    each of ``lines`` is a whole row that needs none, ending in the
    writer's CR LF."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(header)
        f.writelines(lines)


def write_matrix_csv(matrix: np.ndarray, labels: list[str], path) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    row = ",".join([_FLOAT] * m.shape[1]) + "\r\n"
    _write_csv(path, labels, (row % tuple(values.tolist()) for values in m))


def write_series_csv(series: ScalarSeries, path) -> None:
    _write_csv(path, ["t", "value", "units"],
               (f"{t},{fmt(v)},{series.units}\r\n" for t, v in series.points))


def write_spectrum_csv(summary: SpectralSummary, path) -> None:
    _write_csv(path, [f"eigenvalue_{summary.matrix_id.value}"],
               (fmt(v) + "\r\n" for v in summary.eigenvalues))
