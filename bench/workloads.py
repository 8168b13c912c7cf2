"""Workload definitions and seeded input generation.

Both workloads run the same five verb kinds (map, hallmarks, spectra,
train, theory) so that every end-to-end metric exists on each; the sizes
decide which layers do most of the work:

* ``wide_lazy``: a wide f32 store larger than its ``--mem-budget``, read
  lazily with ``--threads 2``. Payload reads, Gram accumulation, the
  thread pool and ``store.matrix()`` dominate; the eigensolver, training
  and theory sweeps are small.
* ``long_cached``: a long f64 store inside the default budget, so the
  cached path is used, plus the full-size generators: the 4-variant
  momentum x weight-decay grid on the MLP fixture and the theory sweeps
  at large widths. The Jacobi eigensolver, n^2 CSV/SVG output, per-step
  hallmark loops, RNG, training epochs and store writes dominate; Gram
  and reads are light. The trajectory is a drifting random walk with an
  alternating-sign component whose steps decay to 1e-6 of the parameter
  norm: a near-converged, oscillating tail on which a derivation that
  cancels (angles from K instead of from differences) loses accuracy.

Each heavy layer is light on the other workload, which is then the
"mechanism bypassed" side of an optimisation of that layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from trajkit.fixtures import GRID_VARIANTS

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    n_points: int
    shapes: tuple  # tensor shapes of one checkpoint
    dtype: str  # "f32" or "f64" payload
    step_first: float  # first step norm, relative to |theta_0|
    step_last: float  # last step norm, relative to |theta_0|
    mem_budget: int | None  # --mem-budget passed to analysis verbs (None: default)
    threads: int  # --threads passed to analysis verbs
    train_epochs: int
    train_samples_per_class: int
    widths: tuple  # theory width sweep

    @property
    def p(self) -> int:
        return sum(math.prod(s) for s in self.shapes)

    @property
    def payload_bytes(self) -> int:
        return self.n_points * self.p * (4 if self.dtype == "f32" else 8)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_lazy",
            n_points=32,
            shapes=((768, 256), (256,), (256, 768), (768,), (384, 384), (384,),
                    (384, 256), (256,)),
            dtype="f32",
            step_first=2e-2,
            step_last=2e-3,
            mem_budget=16 * MIB,
            threads=2,
            train_epochs=6,
            train_samples_per_class=32,
            widths=(16, 32, 64),
        ),
        Workload(
            name="long_cached",
            n_points=80,
            shapes=((64, 128), (128,), (128, 64), (64,), (64, 32), (32,)),
            dtype="f64",
            step_first=1e-2,
            step_last=1e-6,
            mem_budget=None,
            threads=1,
            train_epochs=30,
            train_samples_per_class=128,
            widths=(64, 256, 1024),
        ),
    )
}


def trajectory(w: Workload, seed: int) -> np.ndarray:
    """(n_points, p) trajectory in the workload's payload dtype.

    theta_t = theta_{t-1} + s_t * unit(drift * u + (-1)^t * alt * v + noise_t)
    with fixed unit directions u, v, fresh Gaussian noise per step and
    step norms s_t decaying geometrically from step_first to step_last
    (relative to |theta_0|).
    """
    rng = np.random.default_rng([seed, w.n_points, w.p])
    dtype = np.float32 if w.dtype == "f32" else np.float64
    out = np.empty((w.n_points, w.p), dtype=dtype)
    theta = rng.standard_normal(w.p)
    u = _unit(rng.standard_normal(w.p))
    v = _unit(rng.standard_normal(w.p))
    norm0 = float(np.linalg.norm(theta))
    steps = np.geomspace(w.step_first, w.step_last, max(w.n_points - 1, 1)) * norm0
    out[0] = theta
    for t in range(1, w.n_points):
        direction = 0.6 * u + (0.5 if t % 2 else -0.5) * v + _unit(rng.standard_normal(w.p))
        theta = theta + steps[t - 1] * _unit(direction)
        out[t] = theta
    return out


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def train_spec(w: Workload, seed: int) -> dict:
    """`trajkit train --spec` payload: the fixture grid with seeded data and init."""
    return {
        "train": {
            "epochs": w.train_epochs,
            "seed": 1000 + seed,
            "data": {
                "samples_per_class": w.train_samples_per_class,
                "dim": 20,
                "separation": 3.0,
                "noise_std": 1.0,
                "seed": 2000 + seed,
            },
        },
        "grid": [{"name": n, "mu": mu, "wd": wd} for n, mu, wd in GRID_VARIANTS],
    }
