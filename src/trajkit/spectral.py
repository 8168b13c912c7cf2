"""Spectra of the small trajectory matrices K, K0, C and C0.

The n x n Gram and cosine matrices (n is the number of checkpoints) go
to LAPACK's symmetric eigenvalue routine through ``np.linalg.eigvalsh``,
which reads their lower triangle. Eigenvectors are not computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernel
from .ckptstore import SelectionSpec, TrajectoryStore
from .errors import (
    EmptyTrajectory, NegativeGramEigenvalue, NoConvergence, NonFinitePayload, NotSymmetric,
)

SYMMETRY_TOL = 1e-10
GRAM_CLAMP = 1e-8


class MatrixId(enum.Enum):
    K = "K"
    K0 = "K0"
    C = "C"
    C0 = "C0"


@dataclass
class SpectralSummary:
    matrix_id: MatrixId
    eigenvalues: np.ndarray  # sorted descending
    n: int


def symmetric_eigenvalues(m: np.ndarray, matrix_id: MatrixId = MatrixId.K) -> SpectralSummary:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-10 per entry")
    try:
        eigs = np.linalg.eigvalsh(m)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{matrix_id.value}: eigenvalues did not converge ({exc})")
    if not np.isfinite(eigs).all():
        raise NonFinitePayload(f"{matrix_id.value}: an eigenvalue overflows float64")
    return SpectralSummary(matrix_id=matrix_id, eigenvalues=eigs, n=m.shape[0])


def _clamp_gram_spectrum(eigs: np.ndarray, matrix_id: MatrixId) -> np.ndarray:
    lam_max = max(float(eigs[0]), 0.0)
    floor = -GRAM_CLAMP * lam_max
    if np.any(eigs < floor):
        raise NegativeGramEigenvalue(
            f"{matrix_id.value}: eigenvalue {eigs.min():.3e} below clamp floor {floor:.3e}"
        )
    return np.maximum(eigs, 0.0)


def trajectory_spectra(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> dict[MatrixId, SpectralSummary]:
    """Spectra of K, K0, C, C0 for a store (K0/C0 relative to checkpoint 0)."""
    out: dict[MatrixId, SpectralSummary] = {}
    k, k0 = kernel.gram_pair(store, sel, threads=threads)
    for matrix_id, cos_id, gram in ((MatrixId.K, MatrixId.C, k), (MatrixId.K0, MatrixId.C0, k0)):
        if gram is None:
            raise EmptyTrajectory("no points remain after removing the origin row")
        summary = symmetric_eigenvalues(gram.values, matrix_id)
        summary.eigenvalues = _clamp_gram_spectrum(summary.eigenvalues, matrix_id)
        out[matrix_id] = summary
        out[cos_id] = symmetric_eigenvalues(kernel.compute_cosine_map(gram).values, cos_id)
    return out
