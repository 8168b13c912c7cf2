"""Desk-scale trajectory generator.

Trains a small MLP with SGD (heavy-ball momentum, coupled weight decay,
multiplicative learning-rate schedule) on synthetic two-class Gaussian
blobs and writes the checkpoint trajectory in the store format. Training
is single-threaded and fully deterministic from the spec: identical
specs produce byte-identical stores.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ckptstore, hallmarks, kernel
from .ckptstore import Checkpoint, Dtype, TensorRecord, TrajectoryStore
from .errors import NonFiniteLoss
from .rng import Rng


@dataclass
class BlobSpec:
    """Two Gaussian classes with means +/- separation/2 along the first axis."""

    samples_per_class: int = 128
    dim: int = 20
    separation: float = 3.0
    noise_std: float = 1.0
    seed: int = 7

    def __post_init__(self):
        if self.samples_per_class < 1 or self.dim < 1:
            raise ValueError("samples_per_class and dim must be >= 1")


@dataclass
class TrainSpec:
    layer_sizes: tuple[int, ...] = (20, 64, 64, 2)
    data: BlobSpec = field(default_factory=BlobSpec)
    eta: float = 0.05
    eta_schedule: tuple[tuple[int, float], ...] = ()
    mu: float = 0.9
    wd: float = 1e-4
    batch_size: int = 32
    epochs: int = 30
    ckpt_every: int = 1
    seed: int = 11
    loss: str = "softmax_ce"  # or "squared" (one-hot targets)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        self.eta_schedule = tuple((int(at), float(mult)) for at, mult in self.eta_schedule)
        if len(self.layer_sizes) < 2 or min(self.layer_sizes) < 1:
            raise ValueError("need at least input and output layer sizes, each >= 1")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.wd < 0 or self.eta <= 0:
            raise ValueError("eta must be positive and wd non-negative")
        if self.batch_size < 1 or self.epochs < 0 or self.ckpt_every < 1:
            raise ValueError("batch_size/ckpt_every must be >= 1, epochs >= 0")
        epochs = [e for e, _ in self.eta_schedule]
        if epochs != sorted(set(epochs)):
            raise ValueError("schedule epochs must be strictly increasing")
        if self.loss not in ("softmax_ce", "squared"):
            raise ValueError(f"unknown loss {self.loss!r}")


# MLP fixture for the momentum/weight-decay ordering reproduction.
TRAIN_FIXTURE = TrainSpec(
    layer_sizes=(20, 64, 64, 2),
    data=BlobSpec(samples_per_class=128, dim=20, separation=3.0, noise_std=1.0, seed=7),
    eta=0.15,
    mu=0.9,
    wd=1e-4,
    batch_size=32,
    epochs=60,
    ckpt_every=1,
    seed=11,
)

GRID_VARIANTS = (
    ("mu0.9_wd1e-4", 0.9, 1e-4),
    ("mu0_wd1e-4", 0.0, 1e-4),
    ("mu0.9_wd0", 0.9, 0.0),
    ("mu0_wd0", 0.0, 0.0),
)


@dataclass
class TrainRunRecord:
    losses: list[float]
    accuracies: list[float]
    manifest_path: str
    wall_clock_s: float
    checkpoints: list[Checkpoint] = field(repr=False)  # the store's, not in record.json


def make_blobs(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = Rng(spec.seed)
    n, d = spec.samples_per_class, spec.dim
    x = rng.gaussian(2 * n * d).reshape(2 * n, d) * spec.noise_std
    x[:n, 0] -= spec.separation / 2.0
    x[n:, 0] += spec.separation / 2.0
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return x, y


def init_params(layer_sizes, rng: Rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gaussian weights with std 1/sqrt(fan_in); zero biases."""
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = rng.gaussian(fan_in * fan_out).reshape(fan_in, fan_out) / np.sqrt(fan_in)
        b = np.zeros(fan_out)
        params.append((w, b))
    return params


def _forward(params, x):
    acts = [x]
    h = x
    for li, (w, b) in enumerate(params):
        z = h @ w + b
        h = np.maximum(z, 0.0) if li < len(params) - 1 else z
        acts.append(h)
    return acts


def _loss_and_output_grad(logits, y, loss_kind):
    n = logits.shape[0]
    onehot = np.zeros_like(logits)
    onehot[np.arange(n), y] = 1.0
    if loss_kind == "softmax_ce":
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), y])))
        grad = (probs - onehot) / n
    else:
        diff = logits - onehot
        loss = float(0.5 * np.mean(np.sum(diff * diff, axis=1)))
        grad = diff / n
    return loss, grad


def _backward(params, acts, grad_out):
    grads = [None] * len(params)
    g = grad_out
    for li in range(len(params) - 1, -1, -1):
        w, _ = params[li]
        grads[li] = (acts[li].T @ g, g.sum(axis=0))
        if li > 0:
            g = (g @ w.T) * (acts[li] > 0.0)
    return grads


def evaluate(params, x, y, loss_kind):
    logits = _forward(params, x)[-1]
    loss, _ = _loss_and_output_grad(logits, y, loss_kind)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    return loss, acc


def _checkpoint_from_params(params, index: int, label: str) -> Checkpoint:
    tensors = []
    for li, (w, b) in enumerate(params):
        tensors.append(
            TensorRecord(f"layers.{li}.weight", Dtype.F64, w.shape, w.ravel().copy())
        )
        tensors.append(TensorRecord(f"layers.{li}.bias", Dtype.F64, b.shape, b.copy()))
    return Checkpoint(index=index, label=label, tensors=tensors)


def _lr_at(spec: TrainSpec, epoch: int) -> float:
    lr = spec.eta
    for at, mult in spec.eta_schedule:
        if epoch >= at:
            lr *= mult
    return lr


# divergence is reported as NonFiniteLoss; numpy's warnings would only add
# lines to stderr
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def train(spec: TrainSpec, out_dir) -> TrainRunRecord:
    """Run SGD; writes the checkpoint store and returns the run record.

    Update rule per parameter tensor: v <- mu*v + (g + wd*theta),
    theta <- theta - lr*v. Checkpoint 0 is the initialization; later
    checkpoints land after every ckpt_every-th epoch and after the final
    epoch.
    """
    t0 = time.monotonic()
    out_dir = Path(out_dir)
    x, y = make_blobs(spec.data)
    if spec.layer_sizes[0] != spec.data.dim:
        raise ValueError("first layer size must equal the data dimension")
    rng = Rng(spec.seed)
    params = init_params(spec.layer_sizes, rng)
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]

    checkpoints = [_checkpoint_from_params(params, 0, "epoch0")]
    losses, accuracies = [], []
    n_samples = x.shape[0]
    order = list(range(n_samples))
    for epoch in range(1, spec.epochs + 1):
        lr = _lr_at(spec, epoch)
        rng.shuffle(order)
        for start in range(0, n_samples, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            acts = _forward(params, x[batch])
            loss, grad_out = _loss_and_output_grad(acts[-1], y[batch], spec.loss)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
            grads = _backward(params, acts, grad_out)
            for li, ((w, b), (vw, vb), (gw, gb)) in enumerate(zip(params, velocity, grads)):
                vw[:] = spec.mu * vw + (gw + spec.wd * w)
                vb[:] = spec.mu * vb + (gb + spec.wd * b)
                w -= lr * vw
                b -= lr * vb
        epoch_loss, epoch_acc = evaluate(params, x, y, spec.loss)
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
        losses.append(epoch_loss)
        accuracies.append(epoch_acc)
        if epoch % spec.ckpt_every == 0 or epoch == spec.epochs:
            checkpoints.append(_checkpoint_from_params(params, epoch, f"epoch{epoch}"))

    manifest_path = ckptstore.write_store(checkpoints, out_dir)
    record = TrainRunRecord(
        losses=losses,
        accuracies=accuracies,
        manifest_path=str(manifest_path),
        wall_clock_s=time.monotonic() - t0,
        checkpoints=checkpoints,
    )
    doc = {k: v for k, v in vars(record).items() if k != "checkpoints"}
    (out_dir / "record.json").write_text(json.dumps(doc, indent=2) + "\n")
    return record


def hyperparameter_grid(
    base: TrainSpec, variants: list[tuple[str, float, float]], out_dir
) -> list[tuple[str, float]]:
    """Train (name, mu, wd) variants of ``base`` and report omega for each."""
    if not variants:
        raise ValueError("variants list is empty")
    out_dir = Path(out_dir)
    results = []
    for name, mu, wd in variants:
        record = train(replace(base, mu=mu, wd=wd), out_dir / name)
        store = TrajectoryStore.from_checkpoints(record.checkpoints)
        results.append((name, hallmarks.mds(kernel.trajectory_map(store))))
    return results
