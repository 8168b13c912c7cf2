import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import longdouble_gram, naive_cosine, naive_gram
from trajkit import (
    SelectionSpec,
    TrajectoryStore,
    compute_cosine_map,
    compute_gram,
    gram_pair,
    mds,
    open_store,
    trajectory_map,
    write_store,
)
from trajkit.ckptstore import Checkpoint, Dtype, TensorRecord
from trajkit.errors import (
    DegenerateVector,
    EmptySelection,
    EmptyTrajectory,
    NonFinitePayload,
    OriginOutOfRange,
)
from trajkit.kernel import CHUNK, _gram, _tree_sum

from conftest import random_store


def test_orthonormal_pair():
    store = TrajectoryStore.from_arrays([[1.0, 0.0], [0.0, 1.0]])
    gram = compute_gram(store, None)
    np.testing.assert_array_equal(gram.values, np.eye(2))
    np.testing.assert_array_equal(gram.norms, [1.0, 1.0])


def test_single_point():
    gram = compute_gram(TrajectoryStore.from_arrays([[3.0, 4.0]]), None)
    np.testing.assert_array_equal(gram.values, [[25.0]])
    assert gram.norms[0] == 5.0


def test_gram_matches_naive_oracle(rng):
    for _ in range(10):
        pts = rng.standard_normal((4, 1000))
        store = TrajectoryStore.from_arrays(pts)
        gram = compute_gram(store, None)
        assert np.max(np.abs(gram.values - naive_gram(pts))) <= 1e-10


def test_cosine_antipodal_and_scaled():
    v = np.array([1.0, 2.0, 3.0])
    cm = trajectory_map(TrajectoryStore.from_arrays([v, -v]))
    assert cm.values[0, 1] == -1.0
    cm = trajectory_map(TrajectoryStore.from_arrays([v, 2 * v]))
    assert cm.values[0, 1] == 1.0


def test_cosine_matches_oracle(rng):
    pts = rng.standard_normal((5, 64))
    cm = trajectory_map(TrajectoryStore.from_arrays(pts))
    assert np.max(np.abs(cm.values - naive_cosine(pts))) <= 1e-12


def test_cosine_degenerate_vector():
    store = TrajectoryStore.from_arrays([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateVector):
        trajectory_map(store)


def test_trajectory_map_linear_path():
    pts = np.outer(np.arange(1, 6, dtype=np.float64), [1.0, 2.0, -1.0])
    cm = trajectory_map(TrajectoryStore.from_arrays(pts))
    np.testing.assert_array_equal(cm.values, np.ones((5, 5)))


def test_trajectory_map_circular_orbit():
    angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cm = trajectory_map(TrajectoryStore.from_arrays(pts))
    expected = np.array(
        [[1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=np.float64
    )
    np.testing.assert_allclose(cm.values, expected, atol=1e-15)


def test_trajectory_map_is_composition(rng):
    store = random_store(rng, 6, 40)
    via_compose = compute_cosine_map(compute_gram(store, None))
    np.testing.assert_array_equal(trajectory_map(store).values, via_compose.values)


def test_relative_map_collinear():
    store = TrajectoryStore.from_arrays([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cm = compute_cosine_map(compute_gram(store, 0))
    assert cm.n == 2
    np.testing.assert_array_equal(cm.values, np.ones((2, 2)))


def test_relative_map_orthogonal_displacements():
    store = TrajectoryStore.from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cm = compute_cosine_map(compute_gram(store, 0))
    assert cm.values[0, 1] == 0.0


def test_relative_map_matches_subtracted_oracle(rng):
    pts = rng.standard_normal((6, 50))
    store = TrajectoryStore.from_arrays(pts)
    cm = compute_cosine_map(compute_gram(store, 0))
    expected = naive_cosine(pts[1:], origin=pts[0])
    assert np.max(np.abs(cm.values - expected)) <= 1e-12


def test_relative_origin_out_of_range():
    store = TrajectoryStore.from_arrays([[1.0], [2.0]])
    with pytest.raises(OriginOutOfRange):
        compute_gram(store, 5)


def test_omit_row_on_single_point_store():
    store = TrajectoryStore.from_arrays([[1.0, 2.0]])
    with pytest.raises(EmptyTrajectory):
        compute_gram(store, 0)


# --- layerwise ---


def two_group_store(a_paths, b_paths):
    ckpts = []
    for t, (a, b) in enumerate(zip(a_paths, b_paths)):
        ckpts.append(
            Checkpoint(
                t,
                str(t),
                [
                    TensorRecord("a", Dtype.F64, (len(a),), np.asarray(a, dtype=np.float64)),
                    TensorRecord("b", Dtype.F64, (len(b),), np.asarray(b, dtype=np.float64)),
                ],
            )
        )
    return TrajectoryStore.from_checkpoints(ckpts)


def test_layerwise_partition(rng):
    store = two_group_store(rng.standard_normal((3, 4)), rng.standard_normal((3, 6)))
    groups = [
        ("a", SelectionSpec(include_globs=("a",))),
        ("b", SelectionSpec(include_globs=("b",))),
    ]
    maps = [(name, trajectory_map(store, sel)) for name, sel in groups]
    assert [name for name, _ in maps] == ["a", "b"]
    assert sum(store.selection_dim(sel) for _, sel in groups) == store.selection_dim()


def test_layerwise_identity_partition(rng):
    store = two_group_store(rng.standard_normal((3, 4)), rng.standard_normal((3, 6)))
    cm = trajectory_map(store, SelectionSpec())
    np.testing.assert_array_equal(cm.values, trajectory_map(store).values)


def test_layerwise_mixed_geometry():
    # tensor "a" moves linearly; tensor "b" rotates 90 degrees per step
    a = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0])
    angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
    b = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    store = two_group_store(a, b)
    maps = {name: trajectory_map(store, SelectionSpec(include_globs=(name,))) for name in "ab"}
    np.testing.assert_allclose(maps["a"].values, np.ones((4, 4)), atol=1e-12)
    np.testing.assert_allclose(np.abs(np.diagonal(maps["b"].values, 1)), 0.0, atol=1e-15)


def test_layerwise_empty_group():
    store = two_group_store([[1.0]], [[1.0]])
    with pytest.raises(EmptySelection):
        trajectory_map(store, SelectionSpec(include_globs=("zzz",)))


# --- invariants ---


def test_symmetry_bitwise(rng):
    store = random_store(rng, 7, 513)
    gram = compute_gram(store, None)
    assert np.array_equal(gram.values, gram.values.T)
    cm = compute_cosine_map(gram)
    assert np.array_equal(cm.values, cm.values.T)


def test_cosine_scale_invariance(rng):
    pts = rng.standard_normal((5, 30))
    a = trajectory_map(TrajectoryStore.from_arrays(pts)).values
    b = trajectory_map(TrajectoryStore.from_arrays(pts * 17.5)).values
    assert np.max(np.abs(a - b)) <= 1e-12


def test_worker_count_determinism(rng):
    pts = rng.standard_normal((6, 3 * 4096 + 17))
    store = TrajectoryStore.from_arrays(pts)
    g1 = compute_gram(store, None, threads=1)
    g8 = compute_gram(store, None, threads=8)
    assert np.array_equal(g1.values, g8.values)
    assert np.array_equal(g1.norms, g8.norms)


def test_gram_psd(rng):
    from trajkit.spectral import symmetric_eigenvalues

    store = random_store(rng, 6, 100)
    gram = compute_gram(store, None)
    eigs = symmetric_eigenvalues(gram.values).eigenvalues
    assert eigs[-1] >= -1e-8 * eigs[0]


def test_diag_matches_norms(rng):
    store = random_store(rng, 5, 200)
    gram = compute_gram(store, None)
    np.testing.assert_allclose(np.diagonal(gram.values), gram.norms**2, rtol=1e-12)


# --- fused K/K0 pass ---


def lazy_f32_store(tmp_path, pts):
    ckpts = [
        Checkpoint(i, f"c{i}", [TensorRecord("w", Dtype.F32, (pts.shape[1],), row)])
        for i, row in enumerate(pts)
    ]
    return open_store(write_store(ckpts, tmp_path))


@pytest.mark.parametrize("threads", [1, 3])
def test_gram_pair_is_bit_identical_to_separate_grams(rng, tmp_path, threads):
    # K0 is its own compute_gram's; K is derived from K0's pass, so it is
    # checked against the long-double oracle instead
    pts = rng.standard_normal((7, 5 * 4096 + 17))
    for store in (TrajectoryStore.from_arrays(pts), lazy_f32_store(tmp_path, pts)):
        theta = np.vstack([store.flatten(i) for i in range(7)])
        k, k0 = gram_pair(store, threads=threads)
        single = compute_gram(store, 0, threads=1)
        assert np.array_equal(k0.values, single.values)
        assert np.array_equal(k0.norms, single.norms)
        assert k0.point_labels == single.point_labels
        assert k.point_labels == list(store.labels)
        want = longdouble_gram(theta)
        assert np.max(np.abs(k.values - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(k.values, k.values.T)


def hard_trajectory(rng, kind, n=24, p=CHUNK + 123):
    """Trajectories whose geometry stresses the Gram pass's cancellation."""
    theta = rng.standard_normal(p)
    if kind == "random":
        return rng.standard_normal((n, p))
    out = [theta]
    if kind == "near_converged":  # updates shrink from 1e-2 to 1e-9 of |theta_0|
        for step in np.geomspace(1e-2, 1e-9, n - 1) * np.linalg.norm(theta):
            noise = rng.standard_normal(p)
            out.append(out[-1] + step * noise / np.linalg.norm(noise))
        return np.array(out)
    if kind == "oscillating":  # edge-of-stability: steps flip along v, with a small drift
        v = rng.standard_normal(p)
        for t in range(1, n):
            out.append(out[-1] + (-1) ** t * 0.05 * v + 1e-3 * rng.standard_normal(p))
        return np.array(out)
    # "collapse <f>": a random walk scaled by f ** t, so its norm shrinks by f per step
    factor = float(kind.split()[1])
    for _ in range(1, n):
        out.append(out[-1] + 0.1 * rng.standard_normal(p))
    return np.array(out) * factor ** np.arange(n)[:, None]


HARD_KINDS = ["random", "near_converged", "oscillating", "collapse 0.98", "collapse 0.9",
              "collapse 0.7", "collapse 0.5"]


def longdouble_cosine(k: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diagonal(k))
    return k / np.outer(d, d)


def count_chunk_reads(monkeypatch) -> list:
    calls = []
    chunk_matrix = TrajectoryStore.chunk_matrix

    def counted(self, *args, **kwargs):
        calls.append(args[1:3])
        return chunk_matrix(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryStore, "chunk_matrix", counted)
    return calls


@pytest.mark.parametrize("kind", HARD_KINDS)
def test_grams_match_longdouble_oracle(kind, monkeypatch):
    rng = np.random.default_rng(HARD_KINDS.index(kind))
    theta = hard_trajectory(rng, kind)
    n = theta.shape[0]
    store = TrajectoryStore.from_arrays(theta)
    reads = count_chunk_reads(monkeypatch)
    k, k0 = gram_pair(store)
    chunks = -(-theta.shape[1] // CHUNK)
    want = longdouble_gram(theta)
    want0 = longdouble_gram(theta[1:], origin=theta[0])
    for got, ref in ((k, want), (k0, want0)):
        assert np.max(np.abs(got.values - ref)) <= 1e-9 * float(np.max(np.abs(ref)))
        cmap = compute_cosine_map(got)
        ref_cos = longdouble_cosine(ref)
        assert np.max(np.abs(cmap.values - ref_cos)) <= 1e-14
        assert abs(mds(cmap) - float(np.mean(ref_cos))) <= 1e-14
    # the derivation of K cancels once a point's norm collapses far below
    # theta_0's; those trajectories take a second pass over the raw rows
    if kind in ("collapse 0.9", "collapse 0.7", "collapse 0.5"):
        assert len(reads) == 2 * chunks
        assert np.array_equal(k.values, _gram(store, None, None, 1))
    else:
        assert len(reads) == chunks
    assert np.array_equal(k0.values, compute_gram(store, 0).values)

    for tau in (0, 2, n // 2, n - 1):
        got = compute_gram(store, tau)
        ref = longdouble_gram(np.delete(theta, tau, axis=0), origin=theta[tau])
        assert np.max(np.abs(got.values - ref)) <= 1e-9 * float(np.max(np.abs(ref)))
        cos = compute_cosine_map(got).values
        assert np.max(np.abs(cos - longdouble_cosine(ref))) <= 1e-14


def test_gram_pair_falls_back_quietly_when_the_derivation_overflows():
    # v_i + v_j overflows although every entry of K0's pass and of K is finite
    a = 1e154
    pts = np.array([[a, 0.0, 0.0], [0.01 * a, 1e-3 * a, 0.0], [0.02 * a, 0.0, 1e-3 * a]])
    store = TrajectoryStore.from_arrays(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, k0 = gram_pair(store)
    assert np.array_equal(k.values, _gram(store, None, None, 1))
    assert np.isfinite(k.values).all() and np.isfinite(k0.values).all()


def test_gram_pair_single_point_has_no_k0():
    k, k0 = gram_pair(TrajectoryStore.from_arrays([[3.0, 4.0]]))
    np.testing.assert_array_equal(k.values, [[25.0]])
    assert k0 is None


def test_streamed_tree_sum_matches_level_by_level_sum(rng):
    def level_by_level(parts):
        while len(parts) > 1:
            parts = [
                parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
                for i in range(0, len(parts), 2)
            ]
        return parts[0]

    for n in range(1, 70):
        # magnitudes spread over 16 decades make every summation order visible
        parts = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        want = level_by_level([np.array([v]) for v in parts])
        got = _tree_sum(np.array([v]) for v in parts)
        assert got[0] == want[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_raises(bad):
    pts = np.ones((4, 10))
    pts[2, 3] = bad
    store = TrajectoryStore.from_arrays(pts)
    with pytest.raises(NonFinitePayload):
        compute_gram(store, None)
    with pytest.raises(NonFinitePayload):
        gram_pair(store)


# --- reused chunk buffers ---


@pytest.fixture
def wide_pts(rng):
    # the last chunk is 123 columns wide
    return rng.standard_normal((9, 3 * CHUNK + 123)).astype(np.float32)


def test_grams_bit_identical_at_any_thread_count(wide_pts, tmp_path):
    n = wide_pts.shape[0]
    theta = wide_pts.astype(np.float64)
    lazy = lazy_f32_store(tmp_path / "store", wide_pts)
    cached = TrajectoryStore.from_checkpoints([
        Checkpoint(i, f"c{i}", [TensorRecord("theta", Dtype.F64, (theta.shape[1],), row)])
        for i, row in enumerate(theta)
    ])

    def grams(store, threads):
        k, k0 = gram_pair(store, threads=threads)
        return [k, k0, *(
            compute_gram(store, tau, threads=threads)
            for tau in (0, 2, n // 2, n - 1)  # 0, 2, mid or n - 1 rows move
        )]

    want = grams(lazy, 1)
    for tau, gram in zip((0, 0, 2, n // 2, n - 1), want[1:6]):
        keep = [i for i in range(n) if i != tau]
        assert gram.point_labels == [f"c{i}" for i in keep]
        expected = naive_gram(theta[keep], origin=theta[tau])
        assert np.max(np.abs(gram.values - expected)) <= 1e-9 * np.max(np.abs(expected))
    for threads in (1, 2, 3, 8):
        for store in (lazy, cached):
            for got, ref in zip(grams(store, threads), want):
                assert np.array_equal(got.values, ref.values)
                assert np.array_equal(got.norms, ref.norms)
                assert got.point_labels == ref.point_labels


def test_ring_buffers_are_not_reused_early_under_thread_switching(rng, tmp_path):
    # many narrow chunks and more workers than cores; a slot refilled while
    # a worker still multiplies it changes that chunk's partial
    pts = rng.standard_normal((5, 40 * CHUNK + 7)).astype(np.float32)
    store = lazy_f32_store(tmp_path, pts)
    want = gram_pair(store, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 3, 8) * 3:
            got = gram_pair(store, threads=threads)
            assert all(np.array_equal(g.values, w.values) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def test_cached_matrix_is_never_written(wide_pts):
    store = TrajectoryStore.from_arrays(wide_pts.astype(np.float64))
    before = store.matrix().tobytes()
    gram_pair(store, threads=2)
    for tau in (0, 4, 8):
        compute_gram(store, tau, threads=3)
    assert store.matrix().tobytes() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lazy_gram_pass_holds_at_most_threads_plus_one_chunks(rng, tmp_path, threads):
    n = 16
    pts = rng.standard_normal((n, 6 * CHUNK + 100)).astype(np.float32)
    store = lazy_f32_store(tmp_path, pts)
    gram_pair(store)  # selection lookups are memoised on the first pass
    tracemalloc.start()
    try:
        gram_pair(store, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (threads + 1) * n * CHUNK * 8 + 64 * n * n * 8
