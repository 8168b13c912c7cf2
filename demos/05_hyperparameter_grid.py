"""How momentum and weight decay shape directional similarity.

Trains the fixture MLP four times over the {momentum} x {weight decay}
grid and reports omega for each run. Momentum plus weight decay bends
the trajectory the most (lowest omega); plain SGD without regularization
moves most ballistically (highest omega).
"""

import tempfile

from trajkit import hyperparameter_grid
from trajkit.trajgen import GRID_VARIANTS, TRAIN_FIXTURE


def main():
    with tempfile.TemporaryDirectory() as tmp:
        results = hyperparameter_grid(TRAIN_FIXTURE, list(GRID_VARIANTS), tmp)
    print("variant          omega")
    for name, omega in sorted(results, key=lambda item: item[1]):
        print(f"{name:<15} {omega:.6f}")


if __name__ == "__main__":
    main()
