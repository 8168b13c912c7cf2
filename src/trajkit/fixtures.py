"""Small canonical inputs used by the CLI defaults, tests, and demos.

Each is defined next to its type, the quadratic and width fixtures in
``theory`` and the training ones in ``trajgen``, so that the ``theory``
verb's defaults load no training code; this module gathers them.
"""

from .theory import (  # noqa: F401
    EOS_BASE,
    EOS_GRID,
    EOS_STEPS,
    LEMMA_1D_MOMENTUM,
    LEMMA_1D_PLAIN,
    LEMMA_STEPS,
    WIDTH_FIXTURE,
)
from .trajgen import GRID_VARIANTS, TRAIN_FIXTURE  # noqa: F401
