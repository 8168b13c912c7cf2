import hashlib
import json
import math
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
    compute_cosine_map,
    gram_pair,
    hyperparameter_grid,
    mds,
    open_store,
    train,
    trajectory_map,
)
from trajkit import kernel
from trajkit.errors import NonFiniteLoss
from trajkit.rng import Rng
from trajkit.trajgen import TRAIN_FIXTURE, make_blobs


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
    """Every file's name and bytes, with record.json's losses and accuracies
    but not its manifest path, which names the run's directory."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "record.json":
            doc = json.loads(data)
            del doc["manifest_path"]
            data = json.dumps(doc).encode()
        h.update(path.name.encode())
        h.update(data)
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
    # no hidden layer, squared loss, full batch: heavy-ball SGD whose
    # recursion on (W, b) can be replayed per tensor from the data, the
    # store's init and the stream's batch orders; equality is exact, so
    # the run's update takes its operations in this order
    spec = TrainSpec(
        layer_sizes=(6, 2),
        data=BlobSpec(samples_per_class=16, dim=6, seed=3),
        eta=0.05,
        mu=0.9,
        wd=1e-2,
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
    rng = Rng(spec.seed)
    rng.gaussian(12)  # the init weights, read back from the store below
    order = list(range(n))
    w = init[:12].reshape(6, 2).copy()
    b = init[12:].copy()
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    for _ in range(5):
        rng.shuffle(order)
        xb = x[order]
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), y[order]] = 1.0
        diff = (xb @ w + b) - onehot
        gw = xb.T @ (diff / n)
        gb = (diff / n).sum(axis=0)
        vw = spec.mu * vw + (gw + spec.wd * w)
        vb = spec.mu * vb + (gb + spec.wd * b)
        w = w - spec.eta * vw
        b = b - spec.eta * vb
    assert final.tobytes() == np.concatenate([w.ravel(), b]).tobytes()


def test_grid_stores_match_separate_runs(tmp_path):
    # the shared schedule: checkpoints every other epoch, and a last batch
    # shorter than the others (34 samples)
    spec = small_spec(
        data=BlobSpec(samples_per_class=17, dim=6, seed=3), batch_size=8, epochs=5,
        ckpt_every=2, loss="squared",
    )
    variants = [("a", 0.9, 1e-2), ("b", 0.0, 0.0), ("c", 0.5, 1e-3)]
    hyperparameter_grid(spec, variants, tmp_path / "grid")
    for name, mu, wd in variants:
        train(replace(spec, mu=mu, wd=wd), tmp_path / "runs" / name)
        assert dir_digest(tmp_path / "grid" / name) == dir_digest(tmp_path / "runs" / name)


def test_grid_draws_once_per_call(tmp_path, monkeypatch):
    # a grid draws what one run of its base draws, and so does the next
    # grid: nothing drawn is kept between calls
    drawn = []
    uint64 = Rng.uint64

    def counted(self, n):
        drawn.append(n)
        return uint64(self, n)

    monkeypatch.setattr(Rng, "uint64", counted)
    train(small_spec(), tmp_path / "run")
    counts = [sum(drawn)]
    for grid in ("g1", "g2"):
        drawn.clear()
        hyperparameter_grid(small_spec(), [("a", 0.9, 1e-4), ("b", 0.0, 0.0)], tmp_path / grid)
        counts.append(sum(drawn))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_grid_single_variant_matches_direct_run(tmp_path):
    spec = small_spec()
    results = hyperparameter_grid(spec, [("only", spec.mu, spec.wd)], tmp_path / "g")
    record = train(spec, tmp_path / "direct")
    with open_store(record.manifest_path) as store:
        direct_omega = mds(trajectory_map(store))
    [(name, omega)] = results
    assert name == "only"
    assert omega == direct_omega


def test_grid_omega_is_hallmarks_omega_on_twenty_seeds(tmp_path):
    # the grid takes K by the rule hallmarks uses, gram_pair's; a raw-row sum
    # gives an omega that differs in the last bit on 8 of these seeds
    base = replace(TRAIN_FIXTURE, epochs=15)
    for s in range(20):
        spec = replace(base, seed=base.seed + 100 * s,
                       data=replace(base.data, seed=base.data.seed + 100 * s))
        [(_, omega)] = hyperparameter_grid(spec, [("run", spec.mu, spec.wd)], tmp_path / str(s))
        with open_store(tmp_path / str(s) / "run" / "manifest.json") as store:
            assert omega == mds(compute_cosine_map(gram_pair(store)[0])), s


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


def test_diverging_grid_variant_names_itself(tmp_path):
    variants = [("calm", 0.0, 0.0), ("wild", 0.9, 1e6)]
    with pytest.raises(NonFiniteLoss, match=r"^wild: non-finite loss at epoch 1$"):
        hyperparameter_grid(small_spec(), variants, tmp_path)
    with open_store(tmp_path / "calm" / "manifest.json") as store:  # kept on disk
        assert store.n_points == small_spec().epochs + 1
    assert not (tmp_path / "wild").exists()


def test_grid_checks_every_variant_before_training(tmp_path):
    with pytest.raises(ValueError, match="momentum"):
        hyperparameter_grid(small_spec(), [("a", 0.9, 1e-4), ("b", 1.0, 0.0)], tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../x", "a\x00b"])
def test_grid_refuses_a_name_that_is_not_a_plain_file_name(tmp_path, name):
    variants = [("ok", 0.9, 1e-4), (name, 0.0, 0.0)]
    with pytest.raises(ValueError, match="plain file name"):
        hyperparameter_grid(small_spec(), variants, tmp_path / "grid")
    assert not list(tmp_path.iterdir())


def test_grid_refuses_a_repeated_name(tmp_path):
    variants = [("a", 0.9, 1e-4), ("b", 0.0, 0.0), ("a", 0.0, 1e-4)]
    with pytest.raises(ValueError, match="'a' appears twice"):
        hyperparameter_grid(small_spec(), variants, tmp_path)
    assert not list(tmp_path.iterdir())


def test_grid_empty_variants_rejected(tmp_path):
    with pytest.raises(ValueError):
        hyperparameter_grid(small_spec(), [], tmp_path)


def test_emitted_store_feeds_analysis(tmp_path):
    record = train(small_spec(epochs=6), tmp_path)
    with open_store(record.manifest_path) as store:
        cm = trajectory_map(store)
        assert cm.n == store.n_points
        assert np.all(np.isfinite(cm.values))
        omega = mds(cm)
        assert -1e-12 <= omega <= 1.0 + 1e-12
        series = angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)
        assert len(series.points) == store.n_points - 2


def test_layer_size_mismatch_rejected():
    # refused when the spec is built, before anything is drawn
    with pytest.raises(ValueError, match="data dimension"):
        small_spec(layer_sizes=(7, 8, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(mu=1.0)
    with pytest.raises(ValueError):
        small_spec(eta=0.0)
    with pytest.raises(ValueError):
        small_spec(loss="hinge")
    for empty in ({"samples_per_class": 0}, {"dim": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            BlobSpec(**empty)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, build",
    [
        ("eta", lambda v: small_spec(eta=v)),
        ("mu", lambda v: small_spec(mu=v)),
        ("wd", lambda v: small_spec(wd=v)),
        ("separation", lambda v: BlobSpec(separation=v)),
        ("noise_std", lambda v: BlobSpec(noise_std=v)),
    ],
)
def test_non_finite_spec_value_names_its_field(field, build, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        build(value)
