import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import angular_oracle, norm_oracle
from trajkit import (
    AngularMeasureKind,
    Checkpoint,
    Dtype,
    NormMeasureKind,
    TensorRecord,
    TrajectoryStore,
    angular_series,
    compute_cosine_map,
    compute_gram,
    mds,
    norm_series,
    open_store,
    trajectory_map,
    write_store,
)
from trajkit.errors import DegenerateVector, InsufficientPoints, NonFinitePayload
from trajkit.hallmarks import require_points

from conftest import random_store


def circle_store(n):
    angles = 2.0 * np.pi * np.arange(n) / n
    return TrajectoryStore.from_arrays(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def test_mds_linear_path_is_one():
    pts = np.outer(np.arange(1, 6, dtype=np.float64), [2.0, 1.0])
    assert mds(trajectory_map(TrajectoryStore.from_arrays(pts))) == 1.0


def test_mds_circular_orbit_is_zero():
    assert abs(mds(trajectory_map(circle_store(4)))) <= 1e-12


def test_mds_matches_double_loop(rng):
    cm = trajectory_map(random_store(rng, 6, 40))
    brute = sum(cm.values[i, j] for i in range(6) for j in range(6)) / 36.0
    assert abs(mds(cm) - brute) <= 1e-15


def test_mds_relative_collinear():
    store = TrajectoryStore.from_arrays([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert mds(compute_cosine_map(compute_gram(store, 0))) == 1.0


def test_mds_relative_antipodal():
    store = TrajectoryStore.from_arrays([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    cm = compute_cosine_map(compute_gram(store, 0))
    assert cm.n == 2
    assert abs(mds(cm)) <= 1e-15


def test_mds_relative_matches_oracle(rng):
    pts = rng.standard_normal((6, 30))
    store = TrajectoryStore.from_arrays(pts)
    rel = pts[1:] - pts[0]
    unit = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    expected = float(np.sum(np.mean(unit, axis=0) ** 2))
    assert abs(mds(compute_cosine_map(compute_gram(store, 0))) - expected) <= 1e-12


# --- angular series ---


def test_consecutive_updates_collinear():
    pts = np.outer(np.arange(5, dtype=np.float64), [1.0, 0.0])
    series = angular_series(TrajectoryStore.from_arrays(pts), AngularMeasureKind.CONSECUTIVE_UPDATES)
    assert [t for t, _ in series.points] == [1, 2, 3]
    assert all(v == 0.0 for _, v in series.points)


def test_consecutive_updates_staircase():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    series = angular_series(TrajectoryStore.from_arrays(pts), AngularMeasureKind.CONSECUTIVE_UPDATES)
    assert [round(v, 12) for _, v in series.points] == [90.0, 90.0]


def test_apex_at_init_first_point_is_zero(rng):
    store = random_store(rng, 4, 10)
    series = angular_series(store, AngularMeasureKind.APEX_AT_INIT)
    t, angle = series.points[0]
    # arccos amplifies rounding near cos = 1, so allow a microdegree
    assert t == 1 and abs(angle) <= 1e-5


@pytest.mark.parametrize("measure", list(AngularMeasureKind))
def test_angular_measures_match_oracle(rng, measure):
    pts = rng.standard_normal((6, 25))
    store = TrajectoryStore.from_arrays(pts)
    k = 2 if measure is AngularMeasureKind.LAGGED_UPDATES else 1
    series = angular_series(store, measure, k=k)
    expected = angular_oracle(pts, measure.value, k=k)
    assert [t for t, _ in series.points] == [t for t, _ in expected]
    got = np.array([v for _, v in series.points])
    want = np.array([v for _, v in expected])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_lagged_equals_consecutive_at_k1(rng):
    store = random_store(rng, 6, 12)
    a = angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)
    b = angular_series(store, AngularMeasureKind.LAGGED_UPDATES, k=1)
    assert a.points == b.points


def test_degenerate_update_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateVector):
        angular_series(TrajectoryStore.from_arrays(pts), AngularMeasureKind.CONSECUTIVE_UPDATES)


def test_insufficient_points():
    store = TrajectoryStore.from_arrays([[1.0], [2.0]])
    with pytest.raises(InsufficientPoints):
        angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)


# the fewest checkpoints for which a measure's series has a point, at lag k
FEWEST_POINTS = {
    "consecutive_updates": lambda k: 3, "lagged_updates": lambda k: 2 * k + 1,
    "apex_at_init": lambda k: 2, "apex_at_origin": lambda k: 1,
    "update_vs_position": lambda k: 2, "update_vs_total_displacement": lambda k: 2,
    "progress_vs_total_displacement": lambda k: 2, "update_vs_displacement_from_init": lambda k: 3,
    "param_norm": lambda k: 1, "dist_from_init": lambda k: 2, "update_norm": lambda k: k + 1,
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("measure", [*AngularMeasureKind, *NormMeasureKind], ids=str)
def test_one_points_rule_for_every_series(rng, measure, k):
    series = angular_series if isinstance(measure, AngularMeasureKind) else norm_series
    need = FEWEST_POINTS[measure.value](k)
    require_points(measure, k, need)
    assert series(random_store(rng, need, 4), measure, k=k).points
    with pytest.raises(InsufficientPoints):
        require_points(measure, k, need - 1)
    if need > 1:
        with pytest.raises(InsufficientPoints):
            series(random_store(rng, need - 1, 4), measure, k=k)


# --- norm series ---


def test_norm_series_linear_path():
    pts = np.outer(np.arange(5, dtype=np.float64), [1.0, 0.0])
    store = TrajectoryStore.from_arrays(pts)
    assert [v for _, v in norm_series(store, NormMeasureKind.PARAM_NORM).points] == [
        0.0,
        1.0,
        2.0,
        3.0,
        4.0,
    ]
    assert [v for _, v in norm_series(store, NormMeasureKind.DIST_FROM_INIT).points] == [
        0.0,
        1.0,
        2.0,
        3.0,
        4.0,
    ]
    assert all(v == 1.0 for _, v in norm_series(store, NormMeasureKind.UPDATE_NORM).points)


def test_constant_trajectory_update_norm_zero():
    store = TrajectoryStore.from_arrays(np.ones((4, 3)))
    assert all(v == 0.0 for _, v in norm_series(store, NormMeasureKind.UPDATE_NORM).points)


@pytest.mark.parametrize("measure", list(NormMeasureKind))
def test_norm_measures_match_oracle(rng, measure):
    pts = rng.standard_normal((6, 25))
    series = norm_series(TrajectoryStore.from_arrays(pts), measure, k=2)
    expected = norm_oracle(pts, measure.value, k=2)
    got = np.array([v for _, v in series.points])
    want = np.array([v for _, v in expected])
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30)) <= 1e-12


# --- properties ---


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 20))
def test_omega_in_unit_interval(seed, n, p):
    pts = np.random.default_rng(seed).standard_normal((n, p))
    omega = mds(trajectory_map(TrajectoryStore.from_arrays(pts)))
    assert -1e-12 <= omega <= 1.0 + 1e-12


def test_single_point_omega_is_one(rng):
    assert mds(trajectory_map(random_store(rng, 1, 9))) == 1.0


def test_scale_invariance_of_hallmarks(rng):
    pts = rng.standard_normal((6, 20))
    c = 3.7
    base, scaled = TrajectoryStore.from_arrays(pts), TrajectoryStore.from_arrays(c * pts)
    assert abs(mds(trajectory_map(base)) - mds(trajectory_map(scaled))) <= 1e-12
    relative = [mds(compute_cosine_map(compute_gram(s, 0))) for s in (base, scaled)]
    assert abs(relative[0] - relative[1]) <= 1e-12
    for measure in AngularMeasureKind:
        a = angular_series(base, measure)
        b = angular_series(scaled, measure)
        # arccos amplifies rounding near 0 and 180 degrees
        assert np.max(np.abs(np.array(a.points) - np.array(b.points))) <= 1e-5
    for measure in NormMeasureKind:
        va = np.array([v for _, v in norm_series(base, measure).points])
        vb = np.array([v for _, v in norm_series(scaled, measure).points])
        np.testing.assert_allclose(vb, c * va, rtol=1e-12)


def test_omega_equals_unit_mean_identity(rng):
    pts = rng.standard_normal((7, 33))
    omega = mds(trajectory_map(TrajectoryStore.from_arrays(pts)))
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    identity = float(np.sum(np.mean(unit, axis=0) ** 2))
    assert abs(omega - identity) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_duplicating_last_point_when_aligned_never_decreases_omega(seed, n):
    # Duplication strengthens omega when the duplicated unit vector is at
    # least as aligned with the mean direction as the mean itself.
    pts = np.random.default_rng(seed).standard_normal((n, 12))
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    m = unit.mean(axis=0)
    if float(unit[-1] @ m) < float(m @ m):
        return
    before = mds(trajectory_map(TrajectoryStore.from_arrays(pts)))
    after = mds(trajectory_map(TrajectoryStore.from_arrays(np.vstack([pts, pts[-1]]))))
    assert after >= before - 1e-12


def test_duplicating_anti_aligned_point_can_decrease_omega():
    # omega is not monotone under duplication in general: here the last
    # point opposes the other three, and duplicating it weakens the mean
    # direction (0.25 -> 0.04).
    u = np.array([1.0, 0.0])
    pts = np.array([-u, -u, -u, u])
    before = mds(trajectory_map(TrajectoryStore.from_arrays(pts)))
    after = mds(trajectory_map(TrajectoryStore.from_arrays(np.vstack([pts, u]))))
    assert abs(before - 0.25) <= 1e-12
    assert abs(after - 0.04) <= 1e-12


# --- streamed step products ---


@pytest.mark.parametrize("k", [1, 2])
def test_streamed_series_bit_identical_without_matrix(rng, tmp_path, monkeypatch, k):
    pts = rng.standard_normal((9, 3000)).astype(np.float32)
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord("a", Dtype.F32, (1000,), row[:1000]),
            TensorRecord("b", Dtype.F32, (2000,), row[1000:]),
        ])
        for i, row in enumerate(pts)
    ]
    cached = TrajectoryStore.from_checkpoints(ckpts)
    lazy = open_store(write_store(ckpts, tmp_path))
    theta = pts.astype(np.float64)

    def no_matrix(self, sel=None):
        raise AssertionError("the series must not build the n x p matrix")

    want = {}
    for measure in AngularMeasureKind:
        want[measure] = angular_series(cached, measure, k=k).points
        # the per-definition oracle uses the same dot products, so it agrees bit for bit
        assert want[measure] == angular_oracle(theta, measure.value, k=k)
    for measure in NormMeasureKind:
        want[measure] = norm_series(cached, measure, k=k).points
        assert want[measure] == norm_oracle(theta, measure.value, k=k)
    monkeypatch.setattr(TrajectoryStore, "matrix", no_matrix)
    for measure in AngularMeasureKind:
        assert angular_series(lazy, measure, k=k).points == want[measure]
    for measure in NormMeasureKind:
        assert norm_series(lazy, measure, k=k).points == want[measure]


def test_step_products_streamed_once_per_lag(rng, monkeypatch):
    store = random_store(rng, 6, 20)
    reads = []
    flatten = TrajectoryStore.flatten

    def counted(self, i, sel=None, **kwargs):
        reads.append(i)
        return flatten(self, i, sel, **kwargs)

    monkeypatch.setattr(TrajectoryStore, "flatten", counted)
    for measure in AngularMeasureKind:
        angular_series(store, measure)
    for measure in NormMeasureKind:
        norm_series(store, measure)
    assert sorted(reads) == list(range(6))
    norm_series(store, NormMeasureKind.UPDATE_NORM, k=2)
    assert len(reads) == 12


def test_non_finite_checkpoint_raises_in_series():
    pts = np.outer(np.arange(1.0, 6.0), [1.0, 2.0])
    pts[3, 1] = np.nan
    store = TrajectoryStore.from_arrays(pts)
    with pytest.raises(NonFinitePayload):
        angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)
    with pytest.raises(NonFinitePayload):
        norm_series(store, NormMeasureKind.PARAM_NORM)


# --- hard trajectories ---


def _walk(rng, n, p, step, sign_flip):
    """theta_t = theta_{t-1} + step |theta_0| unit(0.6 u +- 0.5 v + noise):
    v's sign alternates when ``sign_flip``, so consecutive updates turn back."""
    theta = rng.standard_normal(p)
    u, v = (x / np.linalg.norm(x) for x in rng.standard_normal((2, p)))
    out = [theta]
    for t in range(1, n):
        noise = rng.standard_normal(p)
        direction = 0.6 * u + (0.5 if t % 2 or not sign_flip else -0.5) * v
        direction = direction + 0.2 * noise / np.linalg.norm(noise)
        theta = theta + step * np.linalg.norm(out[0]) * direction / np.linalg.norm(direction)
        out.append(theta)
    return np.stack(out)


@pytest.mark.parametrize(
    "step, sign_flip",
    [(1e-6, False), (1e-6, True), (1e-2, True)],
    ids=["near_converged", "near_converged_oscillating", "oscillating"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_hard_trajectories_match_oracle(rng, tmp_path, step, sign_flip, k):
    theta = _walk(rng, 12, 3000, step, sign_flip)
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord("a", Dtype.F64, (1200,), row[:1200]),
            TensorRecord("b", Dtype.F64, (1800,), row[1200:]),
        ])
        for i, row in enumerate(theta)
    ]
    manifest = write_store(ckpts, tmp_path)
    for store in (TrajectoryStore.from_checkpoints(ckpts), open_store(manifest)):
        for measure in AngularMeasureKind:
            got = angular_series(store, measure, k=k).points
            want = angular_oracle(theta, measure.value, k=k)
            assert [t for t, _ in got] == [t for t, _ in want]
            assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= 1e-9
        for measure in NormMeasureKind:
            got = np.array([v for _, v in norm_series(store, measure, k=k).points])
            want = np.array([v for _, v in norm_oracle(theta, measure.value, k=k)])
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30)) <= 1e-12
