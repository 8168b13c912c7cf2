"""``trajgen.GRID_VARIANTS`` under the name ``bench/workloads.py`` imports.

Every fixture lives next to its type, the quadratic and width fixtures in
``theory`` and the training ones in ``trajgen``, and is imported from
there; this module keeps only the one name the benchmark imports from it.
"""

from .trajgen import GRID_VARIANTS  # noqa: F401
