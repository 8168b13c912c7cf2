"""Directional analysis of neural-network optimization trajectories."""

__version__ = "0.1.0"

from .ckptstore import (  # noqa: F401
    ALL,
    Checkpoint,
    Dtype,
    SelectionSpec,
    TensorRecord,
    TrajectoryStore,
    open_store,
    read_checkpoint,
    write_checkpoint,
    write_store,
)
from .hallmarks import (  # noqa: F401
    AngularMeasureKind,
    MdsResult,
    NormMeasureKind,
    ScalarSeries,
    angular_series,
    mds,
    mds_relative,
    norm_series,
)
from .kernel import (  # noqa: F401
    CosineMap,
    GramMatrix,
    OriginSpec,
    compute_cosine_map,
    compute_gram,
    gram_pair,
    layerwise_maps,
    relative_trajectory_map,
    trajectory_map,
)
from .spectral import (  # noqa: F401
    MatrixId,
    SpectralSummary,
    symmetric_eigenvalues,
    trajectory_spectra,
)
from .theory import (  # noqa: F401
    AlignmentCurve,
    LemmaBoundReport,
    QuadraticSpec,
    QuadraticTrace,
    WidthSpec,
    eos_angle_sweep,
    lemma_bounds,
    simulate_quadratic,
    width_alignment,
)
from .trajgen import (  # noqa: F401
    BlobSpec,
    TrainRunRecord,
    TrainSpec,
    hyperparameter_grid,
    train,
)
