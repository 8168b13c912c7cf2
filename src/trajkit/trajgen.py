"""Desk-scale trajectory generator.

Trains a small MLP with SGD (heavy-ball momentum, coupled weight decay)
on synthetic two-class Gaussian blobs and writes the checkpoint
trajectory in the store format. Training is single-threaded and fully
deterministic from the spec: identical specs produce byte-identical
stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ckptstore, kernel
from .ckptstore import Checkpoint, Dtype, TensorRecord, TrajectoryStore
from .errors import NonFiniteLoss, require_finite
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
        require_finite(separation=self.separation, noise_std=self.noise_std)
        if self.samples_per_class < 1 or self.dim < 1:
            raise ValueError("samples_per_class and dim must be >= 1")


@dataclass
class TrainSpec:
    layer_sizes: tuple[int, ...] = (20, 64, 64, 2)
    data: BlobSpec = field(default_factory=BlobSpec)
    eta: float = 0.05
    mu: float = 0.9
    wd: float = 1e-4
    batch_size: int = 32
    epochs: int = 30
    ckpt_every: int = 1
    seed: int = 11
    loss: str = "softmax_ce"  # or "squared" (one-hot targets)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        require_finite(eta=self.eta, mu=self.mu, wd=self.wd)
        if len(self.layer_sizes) < 2 or min(self.layer_sizes) < 1:
            raise ValueError("need at least input and output layer sizes, each >= 1")
        if self.layer_sizes[0] != self.data.dim:
            raise ValueError("first layer size must equal the data dimension")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.wd < 0 or self.eta <= 0:
            raise ValueError("eta must be positive and wd non-negative")
        if self.batch_size < 1 or self.epochs < 0 or self.ckpt_every < 1:
            raise ValueError("batch_size/ckpt_every must be >= 1, epochs >= 0")
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
    checkpoints: list[Checkpoint] = field(repr=False)  # the store's, not in record.json


def make_blobs(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = Rng(spec.seed)
    n, d = spec.samples_per_class, spec.dim
    x = rng.gaussian(2 * n * d).reshape(2 * n, d) * spec.noise_std
    x[:n, 0] -= spec.separation / 2.0
    x[n:, 0] += spec.separation / 2.0
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return x, y


def _layer_views(flat: np.ndarray, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views of a flat parameter vector, laid out
    in the store's tensor order: layers.0.weight, layers.0.bias, ..."""
    views, at = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        views.append((w, flat[at : at + fan_out]))
        at += fan_out
    return views


@dataclass(frozen=True)
class Schedule:
    """Everything a run draws from its seeds: the blobs, the initial
    parameter vector and each epoch's batch order (row e is epoch e + 1's,
    in the smallest unsigned dtype that holds a sample index). It depends
    only on ``data``, ``seed``, ``layer_sizes`` and ``epochs``, so the
    variants of a grid share one."""

    x: np.ndarray
    y: np.ndarray
    theta0: np.ndarray
    orders: np.ndarray


def draw_schedule(spec: TrainSpec) -> Schedule:
    """The stream values a run of ``spec`` takes, in the order it takes
    them: the blobs from ``data.seed``; then, from ``seed``, Gaussian
    weights with std 1/sqrt(fan_in) layer by layer (biases are zero) and
    one Fisher-Yates shuffle of the previous epoch's order per epoch."""
    x, y = make_blobs(spec.data)
    rng = Rng(spec.seed)
    theta0 = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        theta0 += [rng.gaussian(fan_in * fan_out) / np.sqrt(fan_in), np.zeros(fan_out)]
    n_samples = x.shape[0]
    order = list(range(n_samples))
    orders = np.empty((spec.epochs, n_samples), dtype=np.min_scalar_type(n_samples - 1))
    for row in orders:
        rng.shuffle(order)
        row[:] = order
    return Schedule(x=x, y=y, theta0=np.concatenate(theta0), orders=orders)


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


def _backward(params, acts, grad_out, grads) -> None:
    """Fills the (weight, bias) views ``grads`` with the batch gradient."""
    g = grad_out
    for li in range(len(params) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(acts[li].T, g, out=gw)
        g.sum(axis=0, out=gb)
        if li > 0:
            g = (g @ params[li][0].T) * (acts[li] > 0.0)


def evaluate(params, x, y, loss_kind):
    logits = _forward(params, x)[-1]
    loss, _ = _loss_and_output_grad(logits, y, loss_kind)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    return loss, acc


def _checkpoint(theta: np.ndarray, layer_sizes, epoch: int) -> Checkpoint:
    tensors = []
    for li, (w, b) in enumerate(_layer_views(theta.copy(), layer_sizes)):
        tensors.append(TensorRecord(f"layers.{li}.weight", Dtype.F64, w.shape, w))
        tensors.append(TensorRecord(f"layers.{li}.bias", Dtype.F64, b.shape, b))
    return Checkpoint(index=epoch, label=f"epoch{epoch}", tensors=tensors)


# divergence is reported as NonFiniteLoss; numpy's warnings would only add
# lines to stderr
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def train(spec: TrainSpec, out_dir, schedule: Schedule | None = None) -> TrainRunRecord:
    """Run SGD; writes the checkpoint store and returns the run record.

    ``schedule`` is ``draw_schedule(spec)``, drawn here when not given.
    theta, the velocity v and the gradient g are one float64 vector each;
    a step is six whole-vector operations in this order, with eta the
    learning rate:

        tmp = wd * theta; tmp = g + tmp; v = mu * v; v += tmp;
        tmp = eta * v; theta -= tmp

    that is v <- mu*v + (g + wd*theta), theta <- theta - eta*v. Checkpoint
    0 is the initialization; later checkpoints land after every
    ckpt_every-th epoch and after the final epoch.
    """
    out_dir = Path(out_dir)
    if schedule is None:
        schedule = draw_schedule(spec)
    x, y = schedule.x, schedule.y
    theta, velocity, grad, tmp = np.zeros((4, schedule.theta0.size))
    theta[:] = schedule.theta0
    params = _layer_views(theta, spec.layer_sizes)
    grads = _layer_views(grad, spec.layer_sizes)

    checkpoints = [_checkpoint(theta, spec.layer_sizes, 0)]
    losses, accuracies = [], []
    n_samples = x.shape[0]
    for epoch, row in enumerate(schedule.orders, start=1):
        # a list index skips numpy's cast from the stored unsigned dtype,
        # whose code would add 64 KB to the resident set
        order = row.tolist()
        for start in range(0, n_samples, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            acts = _forward(params, x[batch])
            loss, grad_out = _loss_and_output_grad(acts[-1], y[batch], spec.loss)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
            _backward(params, acts, grad_out, grads)
            np.multiply(theta, spec.wd, out=tmp)
            np.add(grad, tmp, out=tmp)
            np.multiply(velocity, spec.mu, out=velocity)
            velocity += tmp
            np.multiply(velocity, spec.eta, out=tmp)
            theta -= tmp
        epoch_loss, epoch_acc = evaluate(params, x, y, spec.loss)
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"non-finite loss at epoch {epoch}")
        losses.append(epoch_loss)
        accuracies.append(epoch_acc)
        if epoch % spec.ckpt_every == 0 or epoch == spec.epochs:
            checkpoints.append(_checkpoint(theta, spec.layer_sizes, epoch))

    manifest_path = ckptstore.write_store(checkpoints, out_dir)
    record = TrainRunRecord(
        losses=losses,
        accuracies=accuracies,
        manifest_path=str(manifest_path),
        checkpoints=checkpoints,
    )
    doc = {k: v for k, v in vars(record).items() if k != "checkpoints"}
    (out_dir / "record.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return record


def hyperparameter_grid(
    base: TrainSpec, variants: list[tuple[str, float, float]], out_dir
) -> list[tuple[str, float]]:
    """Train (name, mu, wd) variants of ``base`` and report omega for each.

    The variants differ only in mu and wd, so the schedule is drawn once,
    from ``base``, and shared; each variant steps as ``train`` does:
    v <- mu*v + (g + wd*theta) as tmp = wd*theta, tmp = g + tmp,
    v = mu*v, v += tmp; then theta <- theta - eta*v as tmp = eta*v,
    theta -= tmp. Each variant's store is ``out_dir / name``, so a name
    must be a plain file name (not empty, ``.`` or ``..``, with no
    separator or NUL) that no other variant has. Every name and spec is
    checked before anything is drawn or written, and one variant's
    checkpoints are held at a time. A variant that diverges raises
    NonFiniteLoss naming it; the stores of the variants before it stay
    on disk.
    """
    if not variants:
        raise ValueError("variants list is empty")
    specs = {}
    for name, mu, wd in variants:
        if name in ("", ".", "..") or "\0" in name or Path(name).name != name:
            raise ValueError(f"variant name must be a plain file name, got {name!r}")
        if name in specs:
            raise ValueError(f"variant name {name!r} appears twice")
        specs[name] = replace(base, mu=mu, wd=wd)
    out_dir = Path(out_dir)
    schedule = draw_schedule(base)
    results = []
    for name, spec in specs.items():
        try:
            record = train(spec, out_dir / name, schedule)
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"{name}: {exc}") from None
        store = TrajectoryStore.from_checkpoints(record.checkpoints)
        results.append((name, kernel.mds(kernel.trajectory_map(store))))
        del record, store  # the next variant trains without this one's checkpoints
    return results
