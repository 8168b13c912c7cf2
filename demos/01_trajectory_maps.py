"""Trajectory maps of three toy trajectories.

Builds a linear path, a circular orbit, and a noisy drift, renders each
cosine trajectory map to SVG, and prints the mean directional similarity
omega. A straight-line trajectory has omega = 1; a closed orbit whose
directions cancel has omega = 0.
"""

from pathlib import Path

import numpy as np

from trajkit import TrajectoryStore, mds, trajectory_map
from trajkit.heatmap import render_svg

OUT = Path(__file__).with_suffix("") / "out"
OUT.mkdir(parents=True, exist_ok=True)


def linear_path(n=12, dim=3):
    return np.outer(np.arange(1.0, n + 1.0), np.ones(dim))


def circular_orbit(n=12):
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def noisy_drift(n=12, dim=50, seed=0):
    rng = np.random.default_rng(seed)
    drift = np.outer(np.arange(1.0, n + 1.0), rng.standard_normal(dim))
    return drift + 0.5 * rng.standard_normal((n, dim))


def main():
    for name, points in (
        ("linear", linear_path()),
        ("orbit", circular_orbit()),
        ("drift", noisy_drift()),
    ):
        store = TrajectoryStore.from_arrays(points)
        cm = trajectory_map(store)
        omega = mds(cm)
        svg_path = OUT / f"{name}.svg"
        svg_path.write_text(render_svg(cm.values, cm.point_labels))
        print(f"{name:>7}: omega = {omega:.6f}  ->  {svg_path}")


if __name__ == "__main__":
    main()
