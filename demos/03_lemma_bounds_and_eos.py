"""Quadratic-model theory checks: update-pair bounds and edge of stability.

Part 1 simulates gradient descent with one-step momentum on a quadratic
and verifies that the inner product of successive updates stays inside
the exact eigenvalue bounds of the matrix Z.

Part 2 sweeps the learning rate on a two-mode quadratic: once eta passes
2/(lambda_1 + lambda_2) the dominant mode oscillates and the mean angle
between consecutive updates flips from acute to obtuse.
"""

from trajkit import QuadraticSpec, eos_angle_sweep, lemma_bounds, simulate_quadratic
from trajkit.theory import EOS_BASE, EOS_GRID, EOS_STEPS


def main():
    spec = QuadraticSpec(
        eigenvalues=(5.0, 2.0, 0.5),
        alpha=0.05,
        mu=0.8,
        eta=(0.12,),
        theta_init=(1.0, -1.0, 2.0),
        rotation_seed=42,
    )
    trace = simulate_quadratic(spec, steps=6)
    report = lemma_bounds(spec, trace)
    print("update-pair inner products vs exact Z bounds:")
    for pair in report.pairs:
        print(
            f"  t={pair.t}: {pair.z_lower:+.6f} <= {pair.observed:+.6f}"
            f" <= {pair.z_upper:+.6f}  (paper closed form matches: {pair.paper_matches_z})"
        )
    print(f"all pairs satisfied: {report.all_satisfied}")

    print()
    threshold = 2.0 / sum(EOS_BASE.eigenvalues)
    print(f"edge-of-stability sweep (oscillation threshold eta = {threshold:.4f}):")
    for point in eos_angle_sweep(EOS_BASE, EOS_GRID, steps=EOS_STEPS):
        regime = "obtuse" if point.mean_angle_deg > 90.0 else "acute"
        print(f"  eta={point.eta:.2f}: mean angle {point.mean_angle_deg:7.2f} deg ({regime})")


if __name__ == "__main__":
    main()
