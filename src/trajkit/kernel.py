"""Gram matrices and cosine-similarity trajectory maps.

All pairwise inner products accumulate in float64 over fixed 4096-element
column chunks whose partial results are combined by a pairwise tree in
chunk order, so the output is bit-identical regardless of how many
workers computed the partials. Each chunk is read once however many
Gram matrices (K and K0) it feeds. The calling thread reads the chunks,
from any store, into a ring of reused buffers; the products, and the
origin shift done in place between them, run on worker threads while the
next chunk is read. Per chunk, a pass allocates only the n x n partials and the
read's staging row of payload-dtype values.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ckptstore import SelectionSpec, TrajectoryStore
from .errors import (
    DegenerateVector,
    EmptySelection,
    EmptyTrajectory,
    LayoutMismatch,
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
    sel: SelectionSpec | None,
    *,
    absolute: bool,
    shift: OriginSpec | None,
    origin_store: TrajectoryStore | None,
    threads: int,
) -> list[GramMatrix]:
    """K (when ``absolute``) and then K_shift (when ``shift``), from a single
    read of each column chunk.

    A checkpoint origin is a row of ``origin_store`` when given, otherwise
    a row of ``store`` that is then omitted from the shifted point set.
    The calling thread reads the chunks in order into a ring of
    ``min(threads, chunks)`` reused n x CHUNK float64 buffers; a pool of one
    worker fewer shifts each one in place and multiplies it while the next
    is read.
    """
    p = store.selection_dim(sel)
    n = store.n_points
    origins, labels = [], []
    if absolute:
        origins.append(OriginSpec.absolute())
        labels.append(list(store.labels))
    omit = None
    if shift is not None:
        if origin_store is not None:
            if not 0 <= shift.tau < origin_store.n_points:
                raise OriginOutOfRange(f"origin index {shift.tau} not in origin store")
            if origin_store.selection_dim(sel) != p:
                raise LayoutMismatch(
                    f"origin store selects {origin_store.selection_dim(sel)} parameters, "
                    f"the store {p}"
                )
            labels.append(list(store.labels))
        else:
            if not 0 <= shift.tau < n:
                raise OriginOutOfRange(f"origin index {shift.tau} not in store of {n} points")
            if n == 1:
                raise EmptyTrajectory("no points remain after removing the origin row")
            omit = shift.tau
            labels.append([lbl for i, lbl in enumerate(store.labels) if i != omit])
        origins.append(shift)

    chunks = [(a, min(a + CHUNK, p)) for a in range(0, p, CHUNK)] or [(0, 0)]
    slots = max(1, min(threads, len(chunks)))
    width = chunks[0][1] - chunks[0][0]
    bufs = [np.empty(n * width) for _ in range(slots)]
    # per slot: the origin row saved before the shift overwrites it, or
    # the origin store's rows of the chunk
    if shift is None:
        keeps = [None] * slots
    elif origin_store is None:
        keeps = [np.empty(width) for _ in range(slots)]
    else:
        keeps = [np.empty(origin_store.n_points * width) for _ in range(slots)]

    def read(k: int, start: int, stop: int):
        slot, w = k % slots, stop - start
        x = store.chunk_matrix(sel, start, stop, out=bufs[slot][: n * w].reshape(n, w))
        keep = keeps[slot]
        if keep is not None:
            if origin_store is None:
                keep = keep[:w]
            else:
                rows = keep[: origin_store.n_points * w].reshape(-1, w)
                keep = origin_store.chunk_matrix(sel, start, stop, out=rows)[shift.tau]
        return x, keep

    def products(x: np.ndarray, keep: np.ndarray | None) -> list[np.ndarray]:
        with np.errstate(invalid="ignore", over="ignore"):  # checked once, below
            out = [x @ x.T] if absolute else []
            if keep is None:
                return out
            if omit is None:
                x -= keep
            else:
                # drop row tau: rows 0..tau-1 each move down one, onto rows 1..tau
                np.copyto(keep, x[omit])
                x[omit + 1 :] -= keep
                for i in range(omit, 0, -1):
                    np.subtract(x[i - 1], keep, out=x[i])
                x = x[1:]
            out.append(x @ x.T)
            return out

    if slots == 1:
        sums = _tree_sum(products(*read(k, a, b)) for k, (a, b) in enumerate(chunks))
    else:
        with ThreadPoolExecutor(max_workers=slots - 1) as ex:

            def parts():
                pending: deque = deque()
                for k, (a, b) in enumerate(chunks):
                    if len(pending) == slots:  # chunk k - slots frees slot k % slots
                        yield pending.popleft().result()
                    pending.append(ex.submit(products, *read(k, a, b)))
                while pending:
                    yield pending.popleft().result()

            sums = _tree_sum(parts())

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
    shift = None if origin.is_absolute else origin
    return _grams(
        store, sel, absolute=shift is None, shift=shift, origin_store=origin_store,
        threads=threads,
    )[0]


def gram_pair(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> tuple[GramMatrix, GramMatrix | None]:
    """K and K0 (relative to checkpoint 0) from one pass over the store.

    Each is bit-identical to its own ``compute_gram`` call. K0 is None for
    a one-point store, which has no points left once the origin is omitted.
    """
    shift = OriginSpec.checkpoint(0) if store.n_points > 1 else None
    grams = _grams(store, sel, absolute=True, shift=shift, origin_store=None, threads=threads)
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
