"""Exception hierarchy shared across the toolkit, and the finiteness
check the spec validators share.

Every error carries a machine-readable ``code`` (the class name) and an
``exit_code`` used by the command-line layer: 2 for data errors, 3 for
violated numerical invariants.
"""

from __future__ import annotations

import math


def require_finite(**fields) -> None:
    """Raises ValueError naming the first field that holds NaN or +-inf;
    a tuple field is checked value by value. The spec validators call
    this first, since every comparison with NaN is false."""
    for name, value in fields.items():
        for v in value if isinstance(value, tuple) else (value,):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


class TrajkitError(Exception):
    exit_code = 2

    @property
    def code(self) -> str:
        return type(self).__name__


# --- checkpoint store ---

class InvalidTensor(TrajkitError):
    pass


class InvalidCheckpoint(TrajkitError):
    pass


class InvalidManifest(TrajkitError):
    pass


class BadMagic(TrajkitError):
    pass


class UnsupportedVersion(TrajkitError):
    pass


class TruncatedFile(TrajkitError):
    pass


class LayoutMismatch(TrajkitError):
    pass


class DuplicateIndex(TrajkitError):
    pass


class EmptySelection(TrajkitError):
    pass


class NonFinitePayload(TrajkitError):
    pass


# --- kernel / hallmarks ---

class OriginOutOfRange(TrajkitError):
    pass


class EmptyTrajectory(TrajkitError):
    pass


class DegenerateVector(TrajkitError):
    pass


class InsufficientPoints(TrajkitError):
    pass


# --- spectral ---

class NotSymmetric(TrajkitError):
    pass


class NoConvergence(TrajkitError):
    exit_code = 3


class NegativeGramEigenvalue(TrajkitError):
    exit_code = 3


# --- theory / training ---

class NonFiniteIterate(TrajkitError):
    pass


class BoundViolation(TrajkitError):
    exit_code = 3


class NonFiniteLoss(TrajkitError):
    pass


# --- reporting ---

class InvalidStyle(TrajkitError):
    pass


class NoMeasuresRequested(TrajkitError):
    pass
