"""Quantitative trajectory hallmarks.

MDS (mean directional similarity) is the mean of all n^2 entries of a
cosine map, equivalently the squared norm of the average unit-normalized
trajectory point. The angular and norm measure families are per-step
series over the flattened checkpoints; all of them derive from one table
of step inner products, streamed once per store, selection and lag.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import angles
from .ckptstore import ALL, SelectionSpec, TrajectoryStore
from .errors import DegenerateVector, InsufficientPoints, NonFinitePayload
from .kernel import CosineMap


class AngularMeasureKind(enum.Enum):
    # angle(second arg is the reference vector); see _angle_terms for ranges
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


class Units(enum.Enum):
    DEGREES = "degrees"
    L2NORM = "l2norm"


@dataclass
class ScalarSeries:
    measure_id: str
    k: int
    points: list[tuple[int, float]]
    units: Units


def mds(cosmap: CosineMap) -> float:
    """omega = (1/n^2) * sum of all cosine-map entries, diagonal included.

    The relative MDS at checkpoint tau is
    ``mds(compute_cosine_map(compute_gram(store, tau)))``.
    """
    return float(np.mean(cosmap.values))


@dataclass
class _StepProducts:
    """Every inner product the hallmark series use, indexed by step t.

    With d_t = theta_t - theta_0, D = theta_T - theta_0, u_t = theta_{t+1}
    - theta_t and v_t = theta_{t+k} - theta_t, each entry is one
    float64 dot product of those vectors (None where undefined).
    """

    theta_theta: list  # theta_t . theta_t
    theta_init: list  # theta_t . theta_0
    disp_disp: list  # d_t . d_t
    disp_first: list  # d_t . d_1
    disp_total: list  # d_t . D
    upd_upd: list  # u_t . u_t
    upd_prev: list  # u_t . u_{t-1}
    upd_theta: list  # u_t . theta_t
    upd_total: list  # u_t . D
    upd_disp: list  # u_t . d_t
    lag_lag: list  # v_t . v_t (the u_t column when k = 1)
    lag_prev: list  # v_t . v_{t-k} (the upd_prev column when k = 1)


@np.errstate(invalid="ignore", over="ignore")  # dot() checks every product
def _stream_products(
    store: TrajectoryStore, sel: SelectionSpec | None, k: int
) -> _StepProducts:
    """One pass that reads each checkpoint once, in order after theta_0 and
    theta_T (D needs both). It holds theta_0, theta_T, D, d_1, the last k
    checkpoints, the last k lagged updates and the current step's vectors,
    each in a buffer allocated once and reused from step to step.
    """
    n = store.n_points
    last = n - 1
    cols = {name: [None] * n for name in _StepProducts.__dataclass_fields__}

    def dot(name: str, t: int, a: np.ndarray, b: np.ndarray) -> None:
        value = float(np.dot(a, b))
        if not math.isfinite(value):
            raise NonFinitePayload(
                f"{name} at step {t} is not finite: a checkpoint holds NaN or Inf, "
                "or its products overflow float64"
            )
        cols[name][t] = value

    def ring(size: int) -> list[np.ndarray]:
        return [np.empty_like(first) for _ in range(size)]

    first = store.flatten(0, sel)
    final = store.flatten(last, sel) if last else first
    total = final - first
    # step s writes slot s % len(ring), so theta_s outlives the k-window,
    # u_s the next step and v_s the next k steps
    thetas, upds = ring(k + 1), ring(2)
    lag_bufs = ring(k + 1) if k > 1 else []
    disp1, disp_buf = ring(2)
    window: deque = deque(maxlen=k)  # theta_{s-k} .. theta_{s-1}
    lags: deque = deque(maxlen=k)  # v_{s-2k} .. v_{s-k-1}
    prev_upd = None
    for s in range(n):
        if s == 0:
            theta = first
        elif s == last:
            theta = final
        else:
            theta = store.flatten(s, sel, out=thetas[s % (k + 1)])
        dot("theta_theta", s, theta, theta)
        dot("theta_init", s, theta, first)
        if s >= 1:
            t, prev = s - 1, window[-1]
            upd = np.subtract(theta, prev, out=upds[s % 2])
            dot("upd_upd", t, upd, upd)
            dot("upd_theta", t, upd, prev)
            dot("upd_total", t, upd, total)
            if t >= 1:
                dot("upd_prev", t, upd, prev_upd)
                dot("upd_disp", t, upd, disp)  # disp still holds d_t
            prev_upd = upd
        # d_s replaces d_{s-1}, used for the last time just above; d_1 is kept
        disp = np.subtract(theta, first, out=disp1 if s == 1 else disp_buf)
        dot("disp_disp", s, disp, disp)
        if s >= 1:
            dot("disp_first", s, disp, disp1)
            dot("disp_total", s, disp, total)
        if k > 1 and s >= k:
            lag = np.subtract(theta, window[0], out=lag_bufs[s % (k + 1)])
            dot("lag_lag", s - k, lag, lag)
            if len(lags) == k:
                dot("lag_prev", s - k, lag, lags[0])
            lags.append(lag)
        window.append(theta)
    if k == 1:
        cols["lag_lag"], cols["lag_prev"] = cols["upd_upd"], cols["upd_prev"]
    return _StepProducts(**cols)


def _step_products(
    store: TrajectoryStore, k: int = 1, sel: SelectionSpec | None = None
) -> _StepProducts:
    """The store's step products for lag k, streamed once per selection and k."""
    return store.memo(("step_products", sel or ALL, k), lambda: _stream_products(store, sel, k))


def _angle_terms(tab: _StepProducts, measure: AngularMeasureKind, k: int, last: int):
    """(t, a.b, a.a, b.b) for every defined step of the measure."""
    M = AngularMeasureKind
    if measure is M.CONSECUTIVE_UPDATES:
        return [(t, tab.upd_prev[t], tab.upd_upd[t], tab.upd_upd[t - 1]) for t in range(1, last)]
    if measure is M.LAGGED_UPDATES:
        return [
            (t, tab.lag_prev[t], tab.lag_lag[t], tab.lag_lag[t - k])
            for t in range(k, last - k + 1)
        ]
    if measure is M.APEX_AT_INIT:
        return [
            (t, tab.disp_first[t], tab.disp_disp[t], tab.disp_disp[1])
            for t in range(1, last + 1)
        ]
    if measure is M.APEX_AT_ORIGIN:
        return [
            (t, tab.theta_init[t], tab.theta_theta[t], tab.theta_theta[0])
            for t in range(0, last + 1)
        ]
    if measure is M.UPDATE_VS_POSITION:
        return [(t, tab.upd_theta[t], tab.upd_upd[t], tab.theta_theta[t]) for t in range(0, last)]
    if measure is M.UPDATE_VS_TOTAL_DISPLACEMENT:
        return [
            (t, tab.upd_total[t], tab.upd_upd[t], tab.disp_disp[last]) for t in range(0, last)
        ]
    if measure is M.PROGRESS_VS_TOTAL_DISPLACEMENT:
        return [
            (t, tab.disp_total[t], tab.disp_disp[t], tab.disp_disp[last])
            for t in range(1, last + 1)
        ]
    if measure is M.UPDATE_VS_DISPLACEMENT_FROM_INIT:
        return [(t, tab.upd_disp[t], tab.upd_upd[t], tab.disp_disp[t]) for t in range(1, last)]
    raise ValueError(measure)  # pragma: no cover


_MIN_POINTS = {
    AngularMeasureKind.CONSECUTIVE_UPDATES: 3,
    AngularMeasureKind.APEX_AT_INIT: 2,
    AngularMeasureKind.APEX_AT_ORIGIN: 1,
    AngularMeasureKind.UPDATE_VS_POSITION: 2,
    AngularMeasureKind.UPDATE_VS_TOTAL_DISPLACEMENT: 2,
    AngularMeasureKind.PROGRESS_VS_TOTAL_DISPLACEMENT: 2,
    AngularMeasureKind.UPDATE_VS_DISPLACEMENT_FROM_INIT: 3,
    NormMeasureKind.PARAM_NORM: 1,
    NormMeasureKind.DIST_FROM_INIT: 2,
}


def require_points(
    measure: AngularMeasureKind | NormMeasureKind, k: int, n_points: int
) -> None:
    """The one minimum-points rule: raises InsufficientPoints unless a store
    of ``n_points`` checkpoints gives ``measure`` at lag k its series."""
    if k < 1:
        raise ValueError("lag k must be >= 1")
    if measure is AngularMeasureKind.LAGGED_UPDATES:
        need = 2 * k + 1
    elif measure is NormMeasureKind.UPDATE_NORM:
        need = k + 1
    else:
        need = _MIN_POINTS[measure]
    if n_points < need:
        raise InsufficientPoints(
            f"{measure.value} with k={k} needs >= {need} checkpoints, store has {n_points}"
        )


def angular_series(
    store: TrajectoryStore,
    measure: AngularMeasureKind,
    k: int = 1,
    sel: SelectionSpec | None = None,
) -> ScalarSeries:
    require_points(measure, k, store.n_points)
    tab = _step_products(store, k, sel)
    points = []
    for t, ab, aa, bb in _angle_terms(tab, measure, k, store.n_points - 1):
        try:
            points.append((t, angles.angle_degrees(ab, aa, bb)))
        except DegenerateVector as exc:
            raise DegenerateVector(f"{measure.value} at t={t}: {exc}") from None
    return ScalarSeries(measure_id=measure.value, k=k, points=points, units=Units.DEGREES)


def norm_series(
    store: TrajectoryStore,
    measure: NormMeasureKind,
    k: int = 1,
    sel: SelectionSpec | None = None,
) -> ScalarSeries:
    require_points(measure, k, store.n_points)
    last = store.n_points - 1
    if measure is NormMeasureKind.PARAM_NORM:
        squares, steps = "theta_theta", range(last + 1)
    elif measure is NormMeasureKind.DIST_FROM_INIT:
        squares, steps = "disp_disp", range(last + 1)
    elif measure is NormMeasureKind.UPDATE_NORM:
        squares, steps = "lag_lag", range(last - k + 1)
    else:  # pragma: no cover
        raise ValueError(measure)
    column = getattr(_step_products(store, k, sel), squares)
    points = [(t, math.sqrt(column[t])) for t in steps]
    return ScalarSeries(measure_id=measure.value, k=k, points=points, units=Units.L2NORM)
