"""Directional analysis of neural-network optimization trajectories.

The public names are exported lazily (PEP 562): ``trajkit.open_store``
imports ``trajkit.ckptstore`` on first use, so a process loads only the
modules it touches. Each lookup returns the owner module's current
attribute and nothing is cached here, so a function replaced in its
owner module (a test's patch, a tracing wrapper) is what ``trajkit``
hands out too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ckptstore": (
        "ALL", "Checkpoint", "Dtype", "SelectionSpec", "TensorRecord", "TrajectoryStore",
        "open_store", "read_checkpoint", "write_checkpoint", "write_store",
    ),
    "hallmarks": (
        "AngularMeasureKind", "NormMeasureKind", "ScalarSeries", "angular_series", "mds",
        "norm_series",
    ),
    "kernel": (
        "CosineMap", "GramMatrix", "compute_cosine_map", "compute_gram", "gram_pair",
        "trajectory_map",
    ),
    "spectral": ("MatrixId", "SpectralSummary", "symmetric_eigenvalues", "trajectory_spectra"),
    "theory": (
        "AlignmentCurve", "LemmaBoundReport", "QuadraticSpec", "QuadraticTrace", "WidthSpec",
        "eos_angle_sweep", "lemma_bounds", "simulate_quadratic", "width_alignment",
    ),
    "trajgen": ("BlobSpec", "TrainRunRecord", "TrainSpec", "hyperparameter_grid", "train"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_OWNER})
