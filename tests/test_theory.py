import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trajkit
from trajkit import (
    QuadraticSpec,
    WidthSpec,
    eos_angle_sweep,
    lemma_bounds,
    simulate_quadratic,
    width_alignment,
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


def random_spec(rng):
    d = int(rng.integers(1, 9))
    lam = tuple(sorted((rng.uniform(0.0, 10.0) for _ in range(d)), reverse=True))
    return QuadraticSpec(
        eigenvalues=lam,
        alpha=float(rng.uniform(0.0, 1.0)),
        mu=float(rng.uniform(0.0, 0.95)),
        eta=(float(rng.uniform(1e-3, 0.3)),),
        theta_init=tuple(float(v) for v in rng.standard_normal(d)),
        rotation_seed=int(rng.integers(0, 100)),
    )


# --- lemma fixtures recursed by hand ---


def test_plain_1d_fixture():
    # theta: 1 -> 0.8 -> 0.64; deltas -0.2, -0.16; ip = 0.032
    trace = simulate_quadratic(LEMMA_1D_PLAIN, LEMMA_STEPS)
    np.testing.assert_allclose(trace.thetas.ravel(), [1.0, 0.8, 0.64], atol=1e-15)
    assert abs(trace.inner_products[0] - 0.032) <= 1e-12
    report = lemma_bounds(LEMMA_1D_PLAIN, trace)
    pair = report.pairs[0]
    # 1-D: the quadratic form collapses, both bounds equal the observed value
    assert abs(pair.z_lower - pair.observed) <= 1e-12
    assert abs(pair.z_upper - pair.observed) <= 1e-12
    assert pair.z_satisfied and pair.paper_matches_z


def test_momentum_1d_fixture():
    # a = 2.1; theta1 = 1 - 0.21 = 0.79
    # step 2 grad = 2.1*0.79 - 0.5*0.1*2.1*1 = 1.554; theta2 = 0.79 - 0.1554
    trace = simulate_quadratic(LEMMA_1D_MOMENTUM, LEMMA_STEPS)
    np.testing.assert_allclose(trace.deltas.ravel(), [-0.21, -0.1554], atol=1e-12)
    assert abs(trace.inner_products[0] - 0.032634) <= 1e-12
    report = lemma_bounds(LEMMA_1D_MOMENTUM, trace)
    assert report.all_satisfied


def test_random_specs_within_z_bounds(rng):
    for _ in range(100):
        spec = random_spec(rng)
        try:
            trace = simulate_quadratic(spec, 6)
        except NonFiniteIterate:
            continue
        report = lemma_bounds(spec, trace)
        assert report.all_satisfied


def test_lower_bound_can_be_negative():
    # large eta on the top mode makes the update pair anti-aligned
    spec = QuadraticSpec(
        eigenvalues=(10.0, 0.0),
        alpha=0.01,
        mu=0.9,
        eta=(0.25,),
        theta_init=(1.0, 0.0),
    )
    trace = simulate_quadratic(spec, 2)
    report = lemma_bounds(spec, trace)
    pair = report.pairs[0]
    assert pair.observed < 0.0
    tol = 1e-12 * abs(pair.observed)
    assert pair.z_lower - tol <= pair.observed <= pair.z_upper + tol


def test_mu_zero_matches_gd_closed_form(rng):
    # plain GD on a quadratic: theta_t = (I - eta*(M + alpha*I))^t theta_0
    lam = np.array([3.0, 1.0, 0.5])
    spec = QuadraticSpec(
        eigenvalues=tuple(lam),
        alpha=0.2,
        mu=0.0,
        eta=(0.1,),
        theta_init=(1.0, -2.0, 0.5),
    )
    trace = simulate_quadratic(spec, 8)
    theta0 = np.array(spec.theta_init)
    factor = 1.0 - 0.1 * (lam + 0.2)
    for t in range(9):
        np.testing.assert_allclose(trace.thetas[t], factor**t * theta0, atol=1e-10)


def test_inner_product_scale_covariance():
    base = QuadraticSpec(
        eigenvalues=(4.0, 1.0), mu=0.5, eta=(0.05,), theta_init=(1.0, 2.0)
    )
    scaled = replace(base, theta_init=(3.0, 6.0))
    ip1 = simulate_quadratic(base, 2).inner_products[0]
    ip9 = simulate_quadratic(scaled, 2).inner_products[0]
    assert abs(ip9 - 9.0 * ip1) <= 1e-12 * abs(ip9)


def test_rotation_preserves_inner_products():
    base = QuadraticSpec(
        eigenvalues=(5.0, 2.0, 1.0), mu=0.3, eta=(0.08,), theta_init=(1.0, 1.0, 1.0)
    )
    # rotating M while keeping theta_init in eigencoordinates changes the
    # iterates but the bounds still hold
    rotated = replace(base, rotation_seed=17)
    for spec in (base, rotated):
        assert lemma_bounds(spec, simulate_quadratic(spec, 4)).all_satisfied


def test_divergent_spec_raises():
    spec = QuadraticSpec(eigenvalues=(10.0,), eta=(10.0,), theta_init=(1.0,))
    with pytest.raises(NonFiniteIterate):
        simulate_quadratic(spec, 2000)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadraticSpec(eigenvalues=(1.0, 2.0))  # not descending
    with pytest.raises(ValueError):
        QuadraticSpec(eigenvalues=(1.0,), eta=(0.0,))
    with pytest.raises(ValueError):
        QuadraticSpec(eigenvalues=(1.0,), theta_init=(1.0, 2.0))


# --- edge of stability ---


def test_eos_fixture_crosses_ninety_once():
    points = eos_angle_sweep(EOS_BASE, EOS_GRID, steps=EOS_STEPS)
    angles = [p.mean_angle_deg for p in points]
    assert all(a is not None for a in angles)
    assert angles[0] < 90.0
    assert angles[-1] > 90.0
    crossings = sum(
        1 for lo, hi in zip(angles, angles[1:]) if (lo < 90.0) != (hi < 90.0)
    )
    assert crossings == 1


def test_eos_threshold_location():
    # flip happens past eta = 2/(lambda_1 + lambda_2) = 2/11
    lo = eos_angle_sweep(EOS_BASE, [0.17], steps=EOS_STEPS)[0]
    hi = eos_angle_sweep(EOS_BASE, [0.19], steps=EOS_STEPS)[0]
    assert lo.mean_angle_deg < 90.0 < hi.mean_angle_deg
    assert 0.17 < 2.0 / 11.0 < 0.19


def test_eos_divergent_point_reported_in_place():
    points = eos_angle_sweep(EOS_BASE, [0.01, 5.0], steps=200)
    assert points[0].error is None
    assert points[1].error is not None and points[1].mean_angle_deg is None


def test_eos_empty_grid_rejected():
    with pytest.raises(ValueError):
        eos_angle_sweep(EOS_BASE, [])


# --- large-width alignment ---


def test_width_zero_update_gives_exact_one():
    curve = width_alignment(WidthSpec(widths=(8, 16), eta_scale=0.0, seed=3))
    assert all(cos == 1.0 for _, cos, _ in curve.points)
    assert math.isnan(curve.fitted_loglog_slope)


def test_width_alignment_small_widths_monotone():
    curve = width_alignment(WidthSpec(widths=(32, 128, 512), eta_scale=1.0, seed=5))
    gaps = [one_minus for _, _, one_minus in curve.points]
    assert gaps == sorted(gaps, reverse=True)
    assert all(0.0 < g < 1.0 for g in gaps)


def test_width_alignment_deterministic():
    a = width_alignment(WidthSpec(widths=(32, 64), seed=9))
    b = width_alignment(WidthSpec(widths=(32, 64), seed=9))
    assert a.points == b.points


def test_width_spec_validation():
    with pytest.raises(ValueError):
        WidthSpec(widths=(64, 64))
    with pytest.raises(ValueError):
        WidthSpec(widths=(1, 4))
    with pytest.raises(ValueError):
        WidthSpec(steps=0)


def test_width_fixture_slope():
    curve = width_alignment(WIDTH_FIXTURE)
    gaps = [one_minus for _, _, one_minus in curve.points]
    assert gaps == sorted(gaps, reverse=True)
    assert -1.3 <= curve.fitted_loglog_slope <= -0.7


def test_width_json_does_not_depend_on_blas_threads(tmp_path):
    # vec(W) of widths 128 and 256 holds 16 384 and 65 536 values, past the
    # length from which OpenBLAS splits one dot over its threads
    params = tmp_path / "w.json"
    params.write_text('{"widths": [128, 256]}')
    src = str(Path(trajkit.__file__).parents[1])
    files = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / blas_threads
        argv = ["theory", "width", "--params", str(params), "--out", str(out)]
        subprocess.run([sys.executable, "-m", "trajkit.cli", *argv], env=env, check=True,
                       capture_output=True, timeout=120)
        files.append((out / "width.json").read_bytes())
    assert files[0] == files[1]
