"""Gram matrices and cosine-similarity trajectory maps.

All pairwise inner products accumulate in float64 over fixed 4096-element
column chunks whose partial results are combined by a pairwise tree in
chunk order, so the output is bit-identical regardless of how many
workers computed the partials. A pass reads each chunk once and
multiplies one of two bases per chunk: the raw rows for the absolute
origin, or the rows shifted by the trajectory's own checkpoint tau for
an in-store origin. K and K0 come from K0's pass, K derived
from it unless that would cancel. The calling thread reads the chunks,
from any store, into a ring of reused buffers; the shift, done in place,
and the product run on worker threads while the next chunk is read. Per
chunk, a pass allocates only the n x n partial and the read's staging
row of payload-dtype values.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import angles
from .ckptstore import SelectionSpec, TrajectoryStore
from .errors import DegenerateVector, EmptyTrajectory, NonFinitePayload, OriginOutOfRange

CHUNK = 4096
# gram_pair derives K from K0's pass while every (|theta_0| + |theta_i -
# theta_0|)^2 / K_ii stays within this; the derived cosines' error measured
# 3-7e-17 times that ratio, so at most about 1e-14 here
CANCEL_BOUND = 128.0


def origin_name(origin: int | None) -> str:
    """``"absolute"`` for the absolute origin (None), else ``"ckpt:tau"``."""
    return "absolute" if origin is None else f"ckpt:{origin}"


@dataclass
class GramMatrix:
    values: np.ndarray
    norms: np.ndarray
    point_labels: list[str]

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class CosineMap:
    values: np.ndarray
    point_labels: list[str]

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _tree_sum(parts: Iterable[np.ndarray]) -> np.ndarray:
    """Pairwise sum in fixed order; independent of how parts were produced.

    Neighbours are added level by level and an odd last part moves up a
    level unchanged. The parts are consumed as they arrive: a binary
    counter holds one partial per level, so at most log2(chunks) + 1.
    """
    levels: list[np.ndarray] = []
    for count, part in enumerate(parts, 1):
        levels.append(part)
        while count % 2 == 0:
            right = levels.pop()
            levels[-1] += right
            count //= 2
    while len(levels) > 1:
        right = levels.pop()
        levels[-1] += right
    return levels[0]


def _mirror_upper(m: np.ndarray) -> None:
    iu = np.triu_indices(m.shape[0], k=1)
    m[(iu[1], iu[0])] = m[iu]


def _gram_matrix(values: np.ndarray, labels: list[str]) -> GramMatrix:
    norms = np.sqrt(np.maximum(np.diagonal(values), 0.0))
    return GramMatrix(values=values, norms=norms, point_labels=labels)


def _gram(
    store: TrajectoryStore,
    sel: SelectionSpec | None,
    tau: int | None,
    threads: int,
) -> np.ndarray:
    """The n x n Gram matrix of one of two bases, from one read of each column chunk.

    The basis is the raw rows for the absolute origin, ``tau`` None. For
    the checkpoint origin ``tau`` it is the rows less row tau, with row
    tau itself kept, so K_tau is the result without row and column tau.
    The calling thread reads the chunks in order into a ring of
    ``min(threads, chunks)`` reused n x CHUNK float64 buffers; a pool of
    one worker fewer shifts each one in place and multiplies it while the
    next is read.
    """
    p = store.selection_dim(sel)
    n = store.n_points
    if tau is not None:
        if not 0 <= tau < n:
            raise OriginOutOfRange(f"origin index {tau} not in store of {n} points")
        if n == 1:
            raise EmptyTrajectory("no points remain after removing the origin row")

    chunks = [(a, min(a + CHUNK, p)) for a in range(0, p, CHUNK)] or [(0, 0)]
    slots = max(1, min(threads, len(chunks)))
    width = chunks[0][1] - chunks[0][0]
    bufs = [np.empty(n * width) for _ in range(slots)]

    def read(k: int, start: int, stop: int) -> np.ndarray:
        w = stop - start
        return store.chunk_matrix(sel, start, stop, out=bufs[k % slots][: n * w].reshape(n, w))

    def product(x: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):  # checked once, below
            if tau is not None:
                x[:tau] -= x[tau]
                x[tau + 1 :] -= x[tau]
            return x @ x.T

    if slots == 1:
        g = _tree_sum(product(read(k, a, b)) for k, (a, b) in enumerate(chunks))
    else:
        with ThreadPoolExecutor(max_workers=slots - 1) as ex:

            def parts():
                pending: deque = deque()
                for k, (a, b) in enumerate(chunks):
                    if len(pending) == slots:  # chunk k - slots frees slot k % slots
                        yield pending.popleft().result()
                    pending.append(ex.submit(product, read(k, a, b)))
                while pending:
                    yield pending.popleft().result()

            g = _tree_sum(parts())

    # the upper triangle is the sum of every partial's upper triangle
    _mirror_upper(g)
    bad = np.argwhere(~np.isfinite(g))
    if bad.size:
        i, j = (store.labels[int(v)] for v in bad[0])
        raise NonFinitePayload(
            f"Gram entry ({i!r}, {j!r}) relative to {origin_name(tau)} is not finite: "
            "a checkpoint holds NaN or Inf, or its products overflow float64"
        )
    return g


def compute_gram(
    store: TrajectoryStore,
    origin: int | None,
    sel: SelectionSpec | None = None,
    *,
    threads: int = 1,
) -> GramMatrix:
    """Gram matrix of the trajectory points from one of two origins.

    From the absolute origin (None) it is the raw points' Gram matrix.
    From the in-trajectory origin ``tau`` the points are shifted by
    checkpoint tau and its zero row is omitted, shrinking n by one.
    """
    g = _gram(store, sel, origin, threads)
    labels = list(store.labels)
    if origin is None:
        return _gram_matrix(g, labels)
    keep = np.arange(store.n_points) != origin
    labels = [lbl for lbl, k in zip(labels, keep) if k]
    return _gram_matrix(g[np.ix_(keep, keep)], labels)


def gram_pair(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> tuple[GramMatrix, GramMatrix | None]:
    """K and K0 (relative to checkpoint 0) from one pass over the store.

    The pass is K0's: the Gram G of the basis [theta_0, theta_1 - theta_0,
    ...], of which K0 is G without row and column 0, bit-identical to
    ``compute_gram(store, 0)``. K is derived as K_ij = G_00 + (v_i + v_j)
    + R_ij, with v row 0 of G less v_0 and R G less row and column 0, an
    order that keeps it symmetric bit for bit. The sum cancels when a
    point's norm falls far below theta_0's: when some (|theta_0| +
    |theta_i - theta_0|)^2 exceeds ``CANCEL_BOUND`` times the derived
    K_ii, or K overflows, K comes from a second pass over the raw rows,
    bit-identical to ``compute_gram(store, None)``. K0 is None for a
    one-point store, which has no points left once the origin is omitted.
    """
    if store.n_points == 1:
        return compute_gram(store, None, sel, threads=threads), None
    g = _gram(store, sel, 0, threads)
    labels = list(store.labels)
    k0 = _gram_matrix(g[1:, 1:].copy(), labels[1:])
    v = np.concatenate(([0.0], g[0, 1:]))
    with np.errstate(invalid="ignore", over="ignore"):  # a K that overflows falls back
        k = np.add.outer(v, v)
        k += g[0, 0]
        k[1:, 1:] += k0.values
        # the reach (|theta_0| + |theta_i - theta_0|)^2 is positive unless theta_0
        # = 0, where K = R is exact, so a derived K_ii <= 0 fails the bound too
        reach = (np.sqrt(g[0, 0]) + k0.norms) ** 2
        derived = np.isfinite(k).all() and (reach <= CANCEL_BOUND * np.diagonal(k)[1:]).all()
    if not derived:
        return compute_gram(store, None, sel, threads=threads), k0
    return _gram_matrix(k, labels), k0


def compute_cosine_map(gram: GramMatrix) -> CosineMap:
    """K_ij / (|i| |j|), clamped to [-1, 1], with the ``angles`` degeneracy rule."""
    bad = np.nonzero(np.diagonal(gram.values) < angles.TINY)[0]
    if bad.size:
        i = int(bad[0])
        raise DegenerateVector(
            f"point {gram.point_labels[i]!r} relative to the origin {angles.DEGENERATE}"
        )
    values = gram.values / np.outer(gram.norms, gram.norms)
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    return CosineMap(values=values, point_labels=list(gram.point_labels))


def trajectory_map(
    store: TrajectoryStore, sel: SelectionSpec | None = None, *, threads: int = 1
) -> CosineMap:
    """Cosine map viewed from the absolute origin (the TM)."""
    return compute_cosine_map(compute_gram(store, None, sel, threads=threads))
