"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report. Tolerances are part of the contract and are not
to be loosened.
"""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    angular_oracle,
    naive_cosine,
    naive_gram,
    norm_oracle,
    power_iteration_eigs,
)
from trajkit import (
    AngularMeasureKind,
    MatrixId,
    NormMeasureKind,
    QuadraticSpec,
    TrajectoryStore,
    angular_series,
    compute_cosine_map,
    compute_gram,
    eos_angle_sweep,
    hyperparameter_grid,
    lemma_bounds,
    mds,
    norm_series,
    read_checkpoint,
    simulate_quadratic,
    symmetric_eigenvalues,
    train,
    trajectory_map,
    trajectory_spectra,
    width_alignment,
    write_checkpoint,
)
from trajkit.errors import NonFiniteIterate
from trajkit.theory import (
    EOS_BASE,
    EOS_GRID,
    EOS_STEPS,
    LEMMA_1D_MOMENTUM,
    LEMMA_1D_PLAIN,
    LEMMA_STEPS,
    WIDTH_FIXTURE,
)
from trajkit.trajgen import GRID_VARIANTS, TRAIN_FIXTURE

from conftest import random_checkpoint


class _Criterion:
    """Context manager printing one PASS/FAIL line per criterion."""

    def __init__(self, num, name):
        self.num = num
        self.name = name
        self.t0 = None

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.num}] {self.name}: {verdict} ({elapsed:.2f}s)")
        return False


def test_criterion_1_mds_extremes():
    with _Criterion(1, "MDS extremes") as c:
        for n in (4, 8, 100):
            angles = 2.0 * np.pi * np.arange(n) / n
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            omega = mds(trajectory_map(TrajectoryStore.from_arrays(pts)))
            assert abs(omega) <= 1e-12, f"circle n={n}: omega={omega}"
        linear = np.outer(np.arange(1.0, 7.0), [3.0, -1.0, 2.0])
        omega = mds(trajectory_map(TrajectoryStore.from_arrays(linear)))
        assert abs(omega - 1.0) <= 1e-12
        assert time.monotonic() - c.t0 < 1.0


def test_criterion_2_kernel_oracle_equivalence():
    with _Criterion(2, "kernel oracle equivalence") as c:
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 2001))
            pts = rng.standard_normal((n, p))
            store = TrajectoryStore.from_arrays(pts)
            gram = compute_gram(store, None)
            assert np.max(np.abs(gram.values - naive_gram(pts))) <= 1e-10
            cos = compute_cosine_map(gram)
            assert np.max(np.abs(cos.values - naive_cosine(pts))) <= 1e-10
        pts = rng.standard_normal((6, 3 * 4096 + 100))
        store = TrajectoryStore.from_arrays(pts)
        g1 = compute_gram(store, None, threads=1)
        g8 = compute_gram(store, None, threads=8)
        assert np.array_equal(g1.values, g8.values)
        assert np.array_equal(
            compute_cosine_map(g1).values, compute_cosine_map(g8).values
        )
        assert time.monotonic() - c.t0 < 30.0


def test_criterion_3_hallmark_oracle_equivalence():
    with _Criterion(3, "hallmark oracle equivalence") as c:
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(5, 9))  # lag k=2 needs at least 5 points
            pts = rng.standard_normal((n, int(rng.integers(2, 60))))
            store = TrajectoryStore.from_arrays(pts)
            for measure in AngularMeasureKind:
                k = 2 if measure is AngularMeasureKind.LAGGED_UPDATES else 1
                got = angular_series(store, measure, k=k).points
                want = angular_oracle(pts, measure.value, k=k)
                assert [t for t, _ in got] == [t for t, _ in want]
                diff = np.abs(
                    np.array([v for _, v in got]) - np.array([v for _, v in want])
                )
                assert np.max(diff) <= 1e-9, measure.value
            for measure in NormMeasureKind:
                got = norm_series(store, measure).points
                want = norm_oracle(pts, measure.value)
                diff = np.abs(
                    np.array([v for _, v in got]) - np.array([v for _, v in want])
                )
                assert np.max(diff) <= 1e-9, measure.value
        assert time.monotonic() - c.t0 < 30.0


def test_criterion_4_spectral_correctness():
    with _Criterion(4, "spectral correctness") as c:
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            m = rng.standard_normal((n, n))
            m = 0.5 * (m + m.T)
            eigs = symmetric_eigenvalues(m).eigenvalues
            assert np.max(np.abs(eigs - power_iteration_eigs(m))) <= 1e-9
            fro = np.linalg.norm(m)
            assert abs(eigs.sum() - np.trace(m)) <= 1e-9 * max(fro, 1.0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            store = TrajectoryStore.from_arrays(rng.standard_normal((n, 30)))
            spectra = trajectory_spectra(store)
            for mid in (MatrixId.C, MatrixId.C0):
                eigs = spectra[mid].eigenvalues
                assert abs(eigs.sum() - eigs.shape[0]) <= 1e-8 * eigs.shape[0]
        assert time.monotonic() - c.t0 < 30.0


def test_criterion_5_lemma_bounds():
    with _Criterion(5, "Lemma 1 momentum bounds") as c:
        # hand-recursed fixtures
        trace = simulate_quadratic(LEMMA_1D_PLAIN, LEMMA_STEPS)
        assert abs(trace.inner_products[0] - 0.032) <= 1e-12
        trace = simulate_quadratic(LEMMA_1D_MOMENTUM, LEMMA_STEPS)
        assert abs(trace.inner_products[0] - 0.032634) <= 1e-12

        rng = np.random.default_rng(50)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(1, 9))
            lam = tuple(sorted((rng.uniform(0.0, 10.0) for _ in range(d)), reverse=True))
            spec = QuadraticSpec(
                eigenvalues=lam,
                alpha=float(rng.uniform(0.0, 1.0)),
                mu=float(rng.uniform(0.0, 0.95)),
                eta=(float(rng.uniform(1e-4, 0.3)),),
                theta_init=tuple(float(v) for v in rng.standard_normal(d)),
                rotation_seed=int(rng.integers(0, 1000)),
            )
            try:
                trace = simulate_quadratic(spec, 4)
            except NonFiniteIterate:
                continue
            report = lemma_bounds(spec, trace)  # raises BoundViolation past 1e-9 rel
            assert report.all_satisfied
            if d == 1:
                for pair in report.pairs:
                    tol = 1e-12 * (1.0 + abs(pair.observed))
                    assert abs(pair.z_lower - pair.observed) <= tol
                    assert abs(pair.z_upper - pair.observed) <= tol
            checked += 1
        assert time.monotonic() - c.t0 < 10.0


def test_criterion_6_eos_angle_transition():
    with _Criterion(6, "EoS angle transition") as c:
        points = eos_angle_sweep(EOS_BASE, EOS_GRID, steps=EOS_STEPS)
        angles = [p.mean_angle_deg for p in points]
        assert all(a is not None for a in angles)
        assert angles[0] < 90.0
        assert angles[-1] > 90.0
        crossings = sum(
            1 for lo, hi in zip(angles, angles[1:]) if (lo < 90.0) != (hi < 90.0)
        )
        assert crossings == 1
        assert time.monotonic() - c.t0 < 5.0


def test_criterion_7_width_alignment():
    with _Criterion(7, "large-width alignment") as c:
        curve = width_alignment(WIDTH_FIXTURE)
        gaps = [one_minus for _, _, one_minus in curve.points]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        assert -1.3 <= curve.fitted_loglog_slope <= -0.7
        assert time.monotonic() - c.t0 < 60.0


def test_criterion_8_hyperparameter_ordering(tmp_path):
    with _Criterion(8, "momentum/weight-decay omega ordering") as c:
        results = hyperparameter_grid(TRAIN_FIXTURE, list(GRID_VARIANTS), tmp_path)
        omegas = dict(results)
        assert omegas["mu0.9_wd1e-4"] == min(omegas.values()), omegas
        assert omegas["mu0_wd0"] == max(omegas.values()), omegas
        assert time.monotonic() - c.t0 < 180.0


def test_momentum_and_weight_decay_interact_on_every_seed(tmp_path):
    """The abstract's claim that momentum and weight decay together promote
    directional exploration, as the sign of their interaction on omega,
    I = w(0.9, lam) - w(0.9, 0) - w(0, lam) + w(0, 0), over ten seeds. At the
    fixture's lam = 1e-4 its sign is not resolved; at 1e-3 it measured
    -7.8e-4 to -3.1e-3 over these seeds."""
    lam = 1e-3
    base = replace(TRAIN_FIXTURE, epochs=15)
    variants = [("both", 0.9, lam), ("mu", 0.9, 0.0), ("wd", 0.0, lam), ("none", 0.0, 0.0)]
    for s in range(10):
        spec = replace(base, seed=base.seed + 100 * s,
                       data=replace(base.data, seed=base.data.seed + 100 * s))
        omega = dict(hyperparameter_grid(spec, variants, tmp_path / str(s)))
        interaction = omega["both"] - omega["mu"] - omega["wd"] + omega["none"]
        assert interaction < 0, (s, omega)


def test_learning_rate_and_batch_size_regularise_direction_on_every_seed(tmp_path):
    """The abstract's claim that some hyperparameters act as directional
    regularisers, for the SGD noise scale eta/B: more noise, lower omega. At
    15 epochs, omega falls as eta rises and rises with the batch size on each
    of ten seeds; the smallest gaps measured 0.0104 (eta) and 0.0018 (B). At
    60 epochs the batch ordering does not hold, so the epochs are part of the
    claim."""
    base = replace(TRAIN_FIXTURE, epochs=15)
    for s in range(10):
        spec = replace(base, seed=base.seed + 100 * s,
                       data=replace(base.data, seed=base.data.seed + 100 * s))

        def omega(key, value):
            record = train(replace(spec, **{key: value}), tmp_path / f"{s}_{key}{value}")
            return mds(trajectory_map(TrajectoryStore.from_checkpoints(record.checkpoints)))

        fixture = omega("eta", spec.eta)  # eta 0.15, batch 32
        by_eta = [omega("eta", 0.05), fixture, omega("eta", 0.25)]
        by_batch = [omega("batch_size", 16), fixture, omega("batch_size", 64),
                    omega("batch_size", 128)]
        assert all(a > b for a, b in zip(by_eta, by_eta[1:])), (s, by_eta)
        assert all(a < b for a, b in zip(by_batch, by_batch[1:])), (s, by_batch)


def test_consecutive_updates_turn_obtuse_at_a_large_learning_rate_on_every_seed(tmp_path):
    """The paper's bends on trained trajectories: under full-batch GD on the
    squared loss without momentum or decay, consecutive updates stay acute
    at eta = 0.05 and turn obtuse at eta = 0.5, where the updates oscillate
    (Cohen et al., 2021), as criterion 6 checks on quadratics. The median
    angle over steps t >= 50 of 100 epochs measured 10.9-20.9 deg and
    168.0-175.3 deg on these ten seeds."""
    data = replace(TRAIN_FIXTURE.data, samples_per_class=32)
    base = replace(TRAIN_FIXTURE, data=data, batch_size=2 * data.samples_per_class,
                   loss="squared", mu=0.0, wd=0.0, epochs=100)
    for s in range(10):
        spec = replace(base, seed=11 + 100 * s, data=replace(data, seed=2000 + 100 * s))

        def median_angle(eta):
            record = train(replace(spec, eta=eta), tmp_path / f"{s}_eta{eta}")
            series = angular_series(TrajectoryStore.from_checkpoints(record.checkpoints),
                                    AngularMeasureKind.CONSECUTIVE_UPDATES)
            return float(np.median([v for t, v in series.points if t >= 50]))

        acute, obtuse = median_angle(0.05), median_angle(0.5)
        assert acute < 90.0 < obtuse, (s, acute, obtuse)


def test_criterion_9_format_round_trip(tmp_path):
    with _Criterion(9, "format round-trip and rerun determinism") as c:
        rng = np.random.default_rng(90)
        for i in range(500):
            ckpt = random_checkpoint(rng, index=i)
            path = tmp_path / "c.trajckpt"
            write_checkpoint(ckpt, path)
            first = path.read_bytes()
            got = read_checkpoint(path, index=ckpt.index, label=ckpt.label)
            assert got.tensors == ckpt.tensors
            write_checkpoint(got, path)
            assert path.read_bytes() == first  # re-serialization is bit-exact

        spec = replace(TRAIN_FIXTURE, epochs=3)
        digests = []
        for run in ("a", "b"):
            run_dir = tmp_path / run
            train(spec, run_dir)
            h = hashlib.sha256()
            for p in sorted(Path(run_dir).rglob("*.trajckpt")):
                h.update(p.read_bytes())
            digests.append(h.hexdigest())
        assert digests[0] == digests[1]
        assert time.monotonic() - c.t0 < 30.0
