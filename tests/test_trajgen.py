import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trajkit import (
    AngularMeasureKind,
    BlobSpec,
    TrainSpec,
    TrajectoryStore,
    angular_series,
    hyperparameter_grid,
    mds,
    open_store,
    train,
    trajectory_map,
)
from trajkit import kernel
from trajkit.fixtures import TRAIN_FIXTURE
from trajkit.trajgen import make_blobs


def small_spec(**overrides):
    base = TrainSpec(
        layer_sizes=(6, 8, 2),
        data=BlobSpec(samples_per_class=16, dim=6, seed=3),
        eta=0.05,
        mu=0.9,
        wd=1e-4,
        batch_size=8,
        epochs=4,
        ckpt_every=1,
        seed=5,
    )
    return replace(base, **overrides)


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "record.json":  # record has wall time
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_make_blobs_shapes_and_means():
    x, y = make_blobs(BlobSpec(samples_per_class=500, dim=4, separation=3.0, seed=1))
    assert x.shape == (1000, 4) and y.shape == (1000,)
    assert set(np.unique(y)) == {0, 1}
    m0 = x[y == 0, 0].mean()
    m1 = x[y == 1, 0].mean()
    assert m0 < -1.0 < 1.0 < m1  # separated by ~3 along the first axis


def test_zero_epochs_single_checkpoint(tmp_path):
    record = train(small_spec(epochs=0), tmp_path)
    with open_store(record.manifest_path) as store:
        assert store.n_points == 1
    assert record.losses == [] and record.accuracies == []


def test_ckpt_every_and_final_epoch(tmp_path):
    record = train(small_spec(epochs=5, ckpt_every=2), tmp_path)
    with open_store(record.manifest_path) as store:
        assert store.indices == [0, 2, 4, 5]


def test_rerun_is_byte_identical(tmp_path):
    train(small_spec(), tmp_path / "a")
    train(small_spec(), tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_training_learns_blobs(tmp_path):
    spec = replace(TRAIN_FIXTURE, epochs=30, eta=0.05)
    record = train(spec, tmp_path)
    assert record.accuracies[-1] > 0.95
    assert record.losses[-1] < record.losses[0]


def test_record_json_written(tmp_path):
    record = train(small_spec(), tmp_path)
    payload = json.loads((tmp_path / "record.json").read_text())
    assert payload["losses"] == record.losses
    assert payload["accuracies"] == record.accuracies


def test_linear_model_squared_loss_matches_closed_form(tmp_path):
    # no hidden layer, squared loss, full batch, mu = wd = 0: plain GD whose
    # recursion on (W, b) can be replayed directly from the data
    spec = TrainSpec(
        layer_sizes=(6, 2),
        data=BlobSpec(samples_per_class=16, dim=6, seed=3),
        eta=0.05,
        mu=0.0,
        wd=0.0,
        batch_size=32,  # full batch
        epochs=5,
        ckpt_every=5,
        seed=5,
        loss="squared",
    )
    record = train(spec, tmp_path)
    with open_store(record.manifest_path) as store:
        init = store.flatten(0)
        final = store.flatten(store.n_points - 1)

    x, y = make_blobs(spec.data)
    n = x.shape[0]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), y] = 1.0
    # replay the store's init, then iterate the exact GD recursion
    w = init[:12].reshape(6, 2).copy()
    b = init[12:].copy()
    for _ in range(5):
        diff = (x @ w + b) - onehot
        gw = x.T @ (diff / n)
        gb = (diff / n).sum(axis=0)
        w -= spec.eta * gw
        b -= spec.eta * gb
    expected = np.concatenate([w.ravel(), b])
    assert np.max(np.abs(final - expected)) <= 1e-8


def test_grid_single_variant_matches_direct_run(tmp_path):
    spec = small_spec()
    results = hyperparameter_grid(spec, [("only", spec.mu, spec.wd)], tmp_path / "g")
    record = train(spec, tmp_path / "direct")
    with open_store(record.manifest_path) as store:
        direct_omega = mds(trajectory_map(store)).omega
    [(name, res)] = results
    assert name == "only"
    assert res.omega == direct_omega


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_grid_computes_omega_without_holding_descriptors(tmp_path, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    baseline = open_fds()
    during = []
    tmap = kernel.trajectory_map

    def counted(store, *args, **kwargs):
        during.append(open_fds())
        return tmap(store, *args, **kwargs)

    monkeypatch.setattr(kernel, "trajectory_map", counted)
    hyperparameter_grid(small_spec(), [("a", 0.9, 1e-4), ("b", 0.0, 0.0)], tmp_path)
    assert during == [baseline, baseline]
    assert open_fds() == baseline


def test_grid_empty_variants_rejected(tmp_path):
    with pytest.raises(ValueError):
        hyperparameter_grid(small_spec(), [], tmp_path)


def test_emitted_store_feeds_analysis(tmp_path):
    record = train(small_spec(epochs=6), tmp_path)
    with open_store(record.manifest_path) as store:
        cm = trajectory_map(store)
        assert cm.n == store.n_points
        assert np.all(np.isfinite(cm.values))
        omega = mds(cm).omega
        assert -1e-12 <= omega <= 1.0 + 1e-12
        series = angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)
        assert len(series.points) == store.n_points - 2


def test_layer_size_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        train(small_spec(layer_sizes=(7, 8, 2)), tmp_path)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(mu=1.0)
    with pytest.raises(ValueError):
        small_spec(eta=0.0)
    with pytest.raises(ValueError):
        small_spec(loss="hinge")
    with pytest.raises(ValueError):
        small_spec(eta_schedule=((5, 0.1), (5, 0.1)))
