"""Angular and norm hallmarks of a real (desk-scale) training run.

Trains the fixture MLP on Gaussian blobs, then walks the checkpoint
trajectory and prints the classic hallmark series: consecutive-update
angles hovering near (or above) 90 degrees, monotone distance from
initialization, and the apex angles that quantify how cone-like the
trajectory is when viewed from the origin or the initialization.
"""

import tempfile
from dataclasses import replace

from trajkit import (
    AngularMeasureKind,
    NormMeasureKind,
    angular_series,
    compute_cosine_map,
    compute_gram,
    mds,
    norm_series,
    open_store,
    train,
    trajectory_map,
)
from trajkit.trajgen import TRAIN_FIXTURE


def show(series, head=5):
    vals = ", ".join(f"{v:.2f}" for _, v in series.points[:head])
    print(f"  {series.measure_id:<32} [{vals}, ...] ({series.units.value})")


def main():
    spec = replace(TRAIN_FIXTURE, epochs=15)
    with tempfile.TemporaryDirectory() as tmp:
        record = train(spec, tmp)
        print(f"trained {spec.epochs} epochs, final accuracy {record.accuracies[-1]:.3f}")
        with open_store(record.manifest_path) as store:
            omega0 = mds(compute_cosine_map(compute_gram(store, 0)))
            print(f"omega  (absolute origin) = {mds(trajectory_map(store)):.4f}")
            print(f"omega0 (relative to init) = {omega0:.4f}")
            print("angular hallmarks:")
            for kind in (
                AngularMeasureKind.CONSECUTIVE_UPDATES,
                AngularMeasureKind.APEX_AT_ORIGIN,
                AngularMeasureKind.APEX_AT_INIT,
                AngularMeasureKind.UPDATE_VS_TOTAL_DISPLACEMENT,
            ):
                show(angular_series(store, kind))
            print("norm hallmarks:")
            for kind in NormMeasureKind:
                show(norm_series(store, kind))


if __name__ == "__main__":
    main()
