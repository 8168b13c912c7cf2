"""Gram matrices and cosine-similarity trajectory maps.

All pairwise inner products accumulate in float64 over fixed 4096-element
chunks whose partial results are combined by a pairwise tree keyed on
chunk index, so the output is bit-identical regardless of how many
workers computed the partials. Each chunk is read once however many
Gram matrices (e.g. K and K0) it feeds.
"""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ckptstore import SelectionSpec, TrajectoryStore
from .errors import (
    DegenerateVector,
    EmptySelection,
    EmptyTrajectory,
    NonFinitePayload,
    OriginOutOfRange,
)

CHUNK = 4096
EPS_NORM = 1e-30


@dataclass(frozen=True)
class OriginSpec:
    """Absolute origin (kind None) or a checkpoint index used as origin."""

    tau: int | None = None

    @classmethod
    def absolute(cls) -> "OriginSpec":
        return cls(None)

    @classmethod
    def checkpoint(cls, tau: int) -> "OriginSpec":
        return cls(int(tau))

    @property
    def is_absolute(self) -> bool:
        return self.tau is None

    def describe(self) -> str:
        return "absolute" if self.is_absolute else f"ckpt:{self.tau}"


@dataclass
class GramMatrix:
    values: np.ndarray
    norms: np.ndarray
    origin: OriginSpec
    point_labels: list[str]

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class CosineMap:
    values: np.ndarray
    origin: OriginSpec
    point_labels: list[str]

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _tree_sum(parts: Iterable[list[np.ndarray]]) -> list[np.ndarray]:
    """Pairwise sum in fixed order; independent of how parts were produced.

    Neighbours are added level by level and an odd last part moves up a
    level unchanged. The parts are consumed as they arrive: a binary
    counter holds one partial per level, so at most log2(chunks) + 1.
    Each part is a list of arrays, summed position by position.
    """

    def add(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        for x, y in zip(a, b):
            x += y
        return a

    levels: list[list[np.ndarray]] = []
    for count, part in enumerate(parts, 1):
        levels.append(part)
        while count % 2 == 0:
            right = levels.pop()
            levels.append(add(levels.pop(), right))
            count //= 2
    while len(levels) > 1:
        right = levels.pop()
        levels.append(add(levels.pop(), right))
    return levels[0]


def _mirror_upper(m: np.ndarray) -> None:
    iu = np.triu_indices(m.shape[0], k=1)
    m[(iu[1], iu[0])] = m[iu]


def _grams(
    store: TrajectoryStore,
    origins: list[OriginSpec],
    sel: SelectionSpec | None,
    origin_store: TrajectoryStore | None,
    threads: int,
) -> list[GramMatrix]:
    """One Gram matrix per origin, from a single read of each column chunk.

    A checkpoint origin is a row of ``origin_store`` when given, otherwise
    a row of ``store`` that is then omitted from the shifted point set.
    """
    p = store.selection_dim(sel)
    labels = []
    for origin in origins:
        if origin.is_absolute:
            labels.append(list(store.labels))
            continue
        if origin_store is not None:
            if not 0 <= origin.tau < origin_store.n_points:
                raise OriginOutOfRange(f"origin index {origin.tau} not in origin store")
            labels.append(list(store.labels))
            continue
        if not 0 <= origin.tau < store.n_points:
            raise OriginOutOfRange(
                f"origin index {origin.tau} not in store of {store.n_points} points"
            )
        if store.n_points == 1:
            raise EmptyTrajectory("no points remain after removing the origin row")
        labels.append([lbl for i, lbl in enumerate(store.labels) if i != origin.tau])

    def shifted(x: np.ndarray, origin: OriginSpec, start: int, stop: int) -> np.ndarray:
        if origin.is_absolute:
            return x
        if origin_store is not None:
            return x - origin_store.chunk_matrix(sel, start, stop)[origin.tau]
        y = np.delete(x, origin.tau, axis=0)
        y -= x[origin.tau]
        return y

    def partial(start: int) -> list[np.ndarray]:
        stop = min(start + CHUNK, p)
        x = store.chunk_matrix(sel, start, stop)
        with np.errstate(invalid="ignore", over="ignore"):  # checked once, below
            blocks = (shifted(x, origin, start, stop) for origin in origins)
            return [b @ b.T for b in blocks]

    chunk_starts = list(range(0, p, CHUNK)) or [0]
    if threads > 1 and len(chunk_starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            sums = _tree_sum(ex.map(partial, chunk_starts))
    else:
        sums = _tree_sum(map(partial, chunk_starts))

    out = []
    for origin, values, point_labels in zip(origins, sums, labels):
        # the upper triangle is the sum of every partial's upper triangle
        _mirror_upper(values)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = (point_labels[int(v)] for v in bad[0])
            raise NonFinitePayload(
                f"Gram entry ({i!r}, {j!r}) relative to {origin.describe()} is not finite: "
                "a checkpoint holds NaN or Inf, or its products overflow float64"
            )
        norms = np.sqrt(np.maximum(np.diagonal(values), 0.0))
        out.append(GramMatrix(values=values, norms=norms, origin=origin, point_labels=point_labels))
    return out


def compute_gram(
    store: TrajectoryStore,
    origin: OriginSpec,
    sel: SelectionSpec | None = None,
    *,
    origin_store: TrajectoryStore | None = None,
    threads: int = 1,
) -> GramMatrix:
    """Gram matrix of the (optionally origin-shifted) trajectory points.

    With an in-trajectory origin the zero row of the shifted point set is
    omitted, shrinking n by one. An external origin point is supplied as
    a one-checkpoint ``origin_store``.
    """
    return _grams(store, [origin], sel, origin_store, threads)[0]


def gram_pair(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> tuple[GramMatrix, GramMatrix | None]:
    """K and K0 (relative to checkpoint 0) from one pass over the store.

    Each is bit-identical to its own ``compute_gram`` call. K0 is None for
    a one-point store, which has no points left once the origin is omitted.
    """
    origins = [OriginSpec.absolute()]
    if store.n_points > 1:
        origins.append(OriginSpec.checkpoint(0))
    grams = _grams(store, origins, sel, None, threads)
    return grams[0], grams[1] if len(grams) > 1 else None


def compute_cosine_map(gram: GramMatrix) -> CosineMap:
    bad = np.nonzero(gram.norms <= EPS_NORM)[0]
    if bad.size:
        i = int(bad[0])
        raise DegenerateVector(
            f"point {gram.point_labels[i]!r} has zero norm relative to the origin"
        )
    values = gram.values / np.outer(gram.norms, gram.norms)
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    return CosineMap(values=values, origin=gram.origin, point_labels=list(gram.point_labels))


def trajectory_map(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> CosineMap:
    """Cosine map viewed from the absolute origin (the TM)."""
    return compute_cosine_map(compute_gram(store, OriginSpec.absolute(), sel, threads=threads))


def relative_trajectory_map(
    store: TrajectoryStore, tau: int, sel: SelectionSpec | None = None, *, threads: int = 1
) -> CosineMap:
    """Cosine map relative to in-trajectory point tau (the RTM), omit-row applied."""
    return compute_cosine_map(
        compute_gram(store, OriginSpec.checkpoint(tau), sel, threads=threads)
    )


def layerwise_maps(
    store: TrajectoryStore,
    group_spec: list[tuple[str, SelectionSpec]],
    *,
    threads: int = 1,
) -> list[tuple[str, CosineMap]]:
    """One trajectory map per named tensor group."""
    out = []
    for name, sel in group_spec:
        try:
            store.selected_layout(sel)
        except EmptySelection:
            raise EmptySelection(f"group {name!r} selects no tensors")
        out.append((name, trajectory_map(store, sel, threads=threads)))
    return out
