"""CSV/JSON serializers shared by the command-line layer.

Floats are written with 17 significant digits, which round-trips float64
exactly. The analysis types appear here in annotations only, so this
module imports none of their modules at run time: the ``theory`` verb
writes its JSON without loading the store and Gram code.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

if TYPE_CHECKING:
    from .hallmarks import ScalarSeries
    from .spectral import SpectralSummary
    from .theory import AlignmentCurve, EosPoint, LemmaBoundReport


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix_csv(matrix: np.ndarray, labels: list[str], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(labels)
        for row in np.asarray(matrix):
            writer.writerow([fmt(v) for v in row])


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    labels = rows[0]
    values = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    return values, labels


def write_series_csv(series: ScalarSeries, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "value", "units"])
        for t, value in series.points:
            writer.writerow([t, fmt(value), series.units.value])


def write_spectrum_csv(summary: SpectralSummary, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"eigenvalue_{summary.matrix_id.value}"])
        for v in summary.eigenvalues:
            writer.writerow([fmt(v)])


@dataclass
class AnalysisSummary:
    manifest_path: str
    n: int
    p: int
    omega: float | None = None
    omega0: float | None = None
    series_files: dict = field(default_factory=dict)
    spectra_files: dict = field(default_factory=dict)
    tool_version: str = __version__

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")


def lemma_report_json(report: LemmaBoundReport) -> dict:
    return {
        "all_satisfied": report.all_satisfied,
        "pairs": [
            {
                "t": p.t,
                "observed": p.observed,
                "z_lower": p.z_lower,
                "z_upper": p.z_upper,
                "paper_lower": p.paper_lower,
                "paper_upper": p.paper_upper,
                "z_satisfied": p.z_satisfied,
                "paper_matches_z": p.paper_matches_z,
            }
            for p in report.pairs
        ],
    }


def eos_json(points: list[EosPoint]) -> dict:
    return {
        "points": [
            {"eta": p.eta, "mean_angle_deg": p.mean_angle_deg, "error": p.error}
            for p in points
        ]
    }


def alignment_json(curve: AlignmentCurve) -> dict:
    return {
        "points": [
            {"width": w, "cos": c, "one_minus_cos": om} for w, c, om in curve.points
        ],
        "fitted_loglog_slope": curve.fitted_loglog_slope,
    }
