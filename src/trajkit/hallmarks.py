"""Quantitative trajectory hallmarks.

The angular and norm measure families are per-step series over the
flattened checkpoints; all of them derive from one table of step inner
products, streamed once per store, selection and lag. MDS, the third
hallmark, is ``kernel.mds`` of a cosine map.
"""

from __future__ import annotations

import enum
import functools
import math
import typing
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import angles
from .ckptstore import ALL, SelectionSpec, TrajectoryStore
from .errors import DegenerateVector, InsufficientPoints, NonFinitePayload

if typing.TYPE_CHECKING:
    from concurrent.futures import Executor


class AngularMeasureKind(enum.Enum):
    # angle(second arg is the reference vector); see _rows for the steps
    CONSECUTIVE_UPDATES = "consecutive_updates"
    LAGGED_UPDATES = "lagged_updates"
    APEX_AT_INIT = "apex_at_init"
    APEX_AT_ORIGIN = "apex_at_origin"
    UPDATE_VS_POSITION = "update_vs_position"
    UPDATE_VS_TOTAL_DISPLACEMENT = "update_vs_total_displacement"
    PROGRESS_VS_TOTAL_DISPLACEMENT = "progress_vs_total_displacement"
    UPDATE_VS_DISPLACEMENT_FROM_INIT = "update_vs_displacement_from_init"


class NormMeasureKind(enum.Enum):
    PARAM_NORM = "param_norm"
    DIST_FROM_INIT = "dist_from_init"
    UPDATE_NORM = "update_norm"


@dataclass
class ScalarSeries:
    measure_id: str
    points: list[tuple[int, float]]
    units: str  # "degrees" or "l2norm"


# The step table: one column per inner product the hallmark series use,
# each a list of one float64 dot product per step t (None where undefined),
# with d_t = theta_t - theta_0, D = theta_T - theta_0, u_t = theta_{t+1} -
# theta_t and v_t = theta_{t+k} - theta_t.
_COLUMNS = (
    "theta_theta",  # theta_t . theta_t
    "theta_init",  # theta_t . theta_0
    "disp_disp",  # d_t . d_t
    "disp_first",  # d_t . d_1
    "disp_total",  # d_t . D
    "upd_upd",  # u_t . u_t
    "upd_prev",  # u_t . u_{t-1}
    "upd_theta",  # u_t . theta_t
    "upd_total",  # u_t . D
    "upd_disp",  # u_t . d_t
    "lag_lag",  # v_t . v_t (the upd_upd column when k = 1)
    "lag_prev",  # v_t . v_{t-k} (the upd_prev column when k = 1)
)


# the jobs of the stream; each runs under the stream's error state or
# _call_submitted's, where overflow and NaN pass silently, since the stream
# checks every product
def _product(col: list, t: int, a: np.ndarray, b: np.ndarray) -> None:
    col[t] = float(np.dot(a, b))


def _difference(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    np.subtract(a, b, out=out)


def _call(job) -> BaseException | None:
    """Runs ``job``; returns what it raised, or None."""
    try:
        job()
    except BaseException as exc:  # the stream raises it, in loop order
        return exc
    return None


# how the executor's worker runs a submitted job: numpy's error state is
# per thread, and the stream's own covers only the jobs run inline
_call_submitted = np.errstate(invalid="ignore", over="ignore")(_call)


def _run_batch(jobs: list, pool: Executor | None) -> list[BaseException | None]:
    """Runs each of ``jobs`` once; returns what each raised, or None, in job
    order. Every other job is submitted to ``pool`` and the rest run here;
    then each submitted job whose future cancels (``pool`` has not started
    it) runs here too, and the others are waited on. With no ``pool`` every
    job runs here, in order."""
    submitted = {}
    if pool is not None:
        submitted = {i: pool.submit(_call_submitted, jobs[i]) for i in range(1, len(jobs), 2)}
    errors = [None if i in submitted else _call(job) for i, job in enumerate(jobs)]
    for i, future in submitted.items():
        errors[i] = _call(jobs[i]) if future.cancel() else future.result()
    return errors


@np.errstate(invalid="ignore", over="ignore")  # D may overflow: its products are checked
def _stream_products(
    store: TrajectoryStore, sel: SelectionSpec | None, k: int, pool: Executor | None = None
) -> dict[str, list]:
    """The step table, from one pass that reads each checkpoint once, in
    order after theta_0 and theta_T (D needs both), and theta_T again at
    step T. Each vector it holds has a buffer allocated once and reused from
    step to step: theta_0, D, d_1, the last w checkpoints, the last w lagged
    updates and the current step's vectors, where w = min(k, n - 1), since a
    lag past the store's end is never formed. That is at most 2 w + 8
    p-length vectors, and 8 at k = 1.

    Each product, and each half of each subtraction, is a job, and the jobs
    run in batches through ``_run_batch``: ``pool``'s worker takes a part of
    a batch whenever it is free, and with no ``pool`` the stream runs every
    job itself, in loop order. The loop ends a batch wherever a job would
    change what a queued one uses: after each subtraction, whose output the
    products that follow read, and, from step 3 on, before d_s overwrites
    d_{s-1}. A read needs no barrier: it overwrites theta_{s-w-1}, which no
    queued job uses. Each product is still one full-vector ``np.dot`` of the
    same two arrays and each subtraction element-wise, and the products are
    checked in the order of the loop, so the table is the same bit for bit,
    and so is the first error, whichever thread runs a job.
    """
    n = store.n_points
    last = n - 1
    w = min(k, last)
    cols = {name: [None] * n for name in _COLUMNS}
    jobs: list = []  # (job, column or None for a subtraction, step), in loop order

    def run() -> None:
        """Runs the queued jobs, then raises the first error or non-finite
        product among them in loop order."""
        errors = _run_batch([job for job, _, _ in jobs], pool)
        for (_, name, t), error in zip(jobs, errors):
            if error is not None:
                raise error
            if name is not None and not math.isfinite(cols[name][t]):
                raise NonFinitePayload(
                    f"{name} at step {t} is not finite: a checkpoint holds NaN or Inf, "
                    "or its products overflow float64"
                )
        jobs.clear()

    def dot(name: str, t: int, a: np.ndarray, b: np.ndarray) -> None:
        jobs.append((functools.partial(_product, cols[name], t, a, b), name, t))

    def subtract(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        for h in (slice(None, out.size // 2), slice(out.size // 2, None)):
            jobs.append((functools.partial(_difference, a[h], b[h], out[h]), None, None))
        run()
        return out

    def read(s: int) -> np.ndarray:
        try:
            return store.flatten(s, sel, out=thetas[s % len(thetas)])
        except BaseException:
            run()  # a product of an earlier step fails first
            raise

    def ring(size: int) -> list[np.ndarray]:
        return [np.empty_like(first) for _ in range(size)]

    first = store.flatten(0, sel)
    total = store.flatten(last, sel)  # theta_T, until D takes its place
    total -= first
    # step s writes slot s % len(ring), so theta_s outlives the w-window,
    # u_s the next step and v_s the next k steps
    thetas, upds = ring(w + 1), ring(2)
    lag_bufs = ring(w + 1) if 1 < k <= last else []
    disp1, disp_buf = ring(2)
    window: deque = deque(maxlen=w)  # theta_{s-w} .. theta_{s-1}
    lags: deque = deque(maxlen=w)  # v_{s-2k} .. v_{s-k-1}
    prev_upd = None
    for s in range(n):
        theta = read(s) if s else first
        dot("theta_theta", s, theta, theta)
        dot("theta_init", s, theta, first)
        if s >= 1:
            t, prev = s - 1, window[-1]
            upd = subtract(theta, prev, upds[s % 2])
            dot("upd_upd", t, upd, upd)
            dot("upd_theta", t, upd, prev)
            dot("upd_total", t, upd, total)
            if t >= 1:
                dot("upd_prev", t, upd, prev_upd)
                dot("upd_disp", t, upd, disp)  # disp still holds d_t
            prev_upd = upd
        # d_s replaces d_{s-1}, used for the last time just above; d_1 is kept
        if s >= 3:  # d_{s-1} is in disp_buf
            run()
        disp = subtract(theta, first, disp1 if s == 1 else disp_buf)
        dot("disp_disp", s, disp, disp)
        if s >= 1:
            dot("disp_first", s, disp, disp1)
            dot("disp_total", s, disp, total)
        if k > 1 and s >= k:
            lag = subtract(theta, window[0], lag_bufs[s % len(lag_bufs)])
            dot("lag_lag", s - k, lag, lag)
            if len(lags) == k:
                dot("lag_prev", s - k, lag, lags[0])
            lags.append(lag)
        window.append(theta)
    run()
    if k == 1:
        cols["lag_lag"], cols["lag_prev"] = cols["upd_upd"], cols["upd_prev"]
    return cols


def _step_products(
    store: TrajectoryStore, k: int = 1, sel: SelectionSpec | None = None,
    pool: Executor | None = None,
) -> dict[str, list]:
    """The store's step table for lag k, streamed once per selection and k."""
    return store.memo(("step_products", sel or ALL, k),
                      lambda: _stream_products(store, sel, k, pool))


def _rows(k: int) -> dict:
    """Each measure's row at lag k: its first step, how many steps short of
    the last step T its series ends, and its terms at step t, read from the
    step table c ([-1] is step T): an angle's (a.b, a.a, b.b), a norm's
    square. A fourth entry is the fewest checkpoints, where that is not
    first + short + 1."""
    M, N = AngularMeasureKind, NormMeasureKind
    return {
        M.CONSECUTIVE_UPDATES: (
            1, 1, lambda c, t: (c["upd_prev"][t], c["upd_upd"][t], c["upd_upd"][t - 1])),
        M.LAGGED_UPDATES: (
            k, k, lambda c, t: (c["lag_prev"][t], c["lag_lag"][t], c["lag_lag"][t - k])),
        M.APEX_AT_INIT: (
            1, 0, lambda c, t: (c["disp_first"][t], c["disp_disp"][t], c["disp_disp"][1])),
        M.APEX_AT_ORIGIN: (
            0, 0, lambda c, t: (c["theta_init"][t], c["theta_theta"][t], c["theta_theta"][0])),
        M.UPDATE_VS_POSITION: (
            0, 1, lambda c, t: (c["upd_theta"][t], c["upd_upd"][t], c["theta_theta"][t])),
        M.UPDATE_VS_TOTAL_DISPLACEMENT: (
            0, 1, lambda c, t: (c["upd_total"][t], c["upd_upd"][t], c["disp_disp"][-1])),
        M.PROGRESS_VS_TOTAL_DISPLACEMENT: (
            1, 0, lambda c, t: (c["disp_total"][t], c["disp_disp"][t], c["disp_disp"][-1])),
        M.UPDATE_VS_DISPLACEMENT_FROM_INIT: (
            1, 1, lambda c, t: (c["upd_disp"][t], c["upd_upd"][t], c["disp_disp"][t])),
        N.PARAM_NORM: (0, 0, lambda c, t: c["theta_theta"][t]),
        # one checkpoint is no distance from itself: the series needs two
        N.DIST_FROM_INIT: (0, 0, lambda c, t: c["disp_disp"][t], 2),
        N.UPDATE_NORM: (0, k, lambda c, t: c["lag_lag"][t]),
    }


def require_points(
    measure: AngularMeasureKind | NormMeasureKind, k: int, n_points: int
) -> None:
    """The one minimum-points rule: raises InsufficientPoints unless a store
    of ``n_points`` checkpoints gives ``measure`` at lag k its series."""
    if k < 1:
        raise ValueError("lag k must be >= 1")
    first, short, _, *fewest = _rows(k)[measure]
    need = fewest[0] if fewest else first + short + 1
    if n_points < need:
        raise InsufficientPoints(
            f"{measure.value} with k={k} needs >= {need} checkpoints, store has {n_points}"
        )


def _terms(store, measure, k: int, sel) -> list[tuple[int, object]]:
    """(t, terms at step t) for every step of ``measure``'s row."""
    require_points(measure, k, store.n_points)
    first, short, terms, *_ = _rows(k)[measure]
    cols = _step_products(store, k, sel)
    return [(t, terms(cols, t)) for t in range(first, store.n_points - short)]


def angular_series(
    store: TrajectoryStore,
    measure: AngularMeasureKind,
    k: int = 1,
    sel: SelectionSpec | None = None,
) -> ScalarSeries:
    points = []
    for t, (ab, aa, bb) in _terms(store, measure, k, sel):
        try:
            points.append((t, angles.angle_degrees(ab, aa, bb)))
        except DegenerateVector as exc:
            raise DegenerateVector(f"{measure.value} at t={t}: {exc}") from None
    return ScalarSeries(measure_id=measure.value, points=points, units="degrees")


def norm_series(
    store: TrajectoryStore,
    measure: NormMeasureKind,
    k: int = 1,
    sel: SelectionSpec | None = None,
) -> ScalarSeries:
    points = [(t, math.sqrt(square)) for t, square in _terms(store, measure, k, sel)]
    return ScalarSeries(measure_id=measure.value, points=points, units="l2norm")
