import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trajkit
from oracles import quadratic_oracle, z_bounds_oracle
from trajkit import (
    QuadraticSpec,
    WidthSpec,
    eos_angle_sweep,
    lemma_bounds,
    simulate_quadratic,
    width_alignment,
)
from trajkit import theory
from trajkit.cli import main
from trajkit.errors import NonFiniteIterate
from trajkit.rng import Rng
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
    np.testing.assert_allclose(np.asarray(trace.thetas).ravel(), [1.0, 0.8, 0.64], atol=1e-15)
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
    np.testing.assert_allclose(np.asarray(trace.deltas).ravel(), [-0.21, -0.1554], atol=1e-12)
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


def test_simulation_and_bounds_match_the_long_double_oracle():
    # 200 seeded random specs, half of them rotated; the oracle's M is built
    # here from the same orthogonal Q. A product that nearly cancels keeps
    # no relative accuracy, so an update product is compared relative to
    # |Delta_t| |Delta_{t+1}| and a Z bound relative to the larger bound
    rng = np.random.default_rng(2025)
    for case in range(200):
        d = int(rng.integers(1, 9))
        lam = sorted(rng.uniform(0.0, 10.0, d).tolist(), reverse=True)
        spec = QuadraticSpec(
            eigenvalues=lam,
            alpha=float(rng.uniform(0.0, 1.0)),
            mu=float(rng.uniform(0.0, 0.95)),
            eta=tuple(rng.uniform(1e-3, 0.3, int(rng.integers(1, 4))).tolist()),
            theta_init=tuple(rng.standard_normal(d).tolist()),
            rotation_seed=int(rng.integers(1, 1000)) if case % 2 else 0,
        )
        m = np.diag(lam)
        if spec.rotation_seed:
            q = Rng(spec.rotation_seed).orthogonal(d)
            m = q @ m @ q.T
        trace = simulate_quadratic(spec, 8)
        report = lemma_bounds(spec, trace)
        thetas, inner = quadratic_oracle(m, spec.alpha, spec.mu, spec.eta, spec.theta_init, 8)
        norms = np.sqrt(np.einsum("ij,ij->i", thetas, thetas))
        got_norms = [math.sqrt(sum(x * x for x in row)) for row in trace.thetas.tolist()]
        assert np.all(np.abs(got_norms - norms) <= 1e-12 * norms), case
        deltas = np.diff(thetas, axis=0)
        update_norms = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        errors = np.abs(np.asarray(trace.inner_products) - inner)
        assert np.all(errors <= 1e-12 * update_norms[:-1] * update_norms[1:]), case
        for pair in report.pairs:
            assert pair.observed == trace.inner_products[pair.t - 1]
            lower, upper = z_bounds_oracle(m, spec.alpha, spec.mu, spec.eta_at(pair.t),
                                           spec.eta_at(pair.t + 1), thetas[pair.t - 1])
            tol = 1e-12 * max(abs(lower), abs(upper))
            assert abs(pair.z_lower - lower) <= tol and abs(pair.z_upper - upper) <= tol, case


def test_a_rotation_changes_the_iterates():
    base = QuadraticSpec(eigenvalues=(5.0, 2.0, 0.5), mu=0.3, eta=(0.08,),
                         theta_init=(1.0, -1.0, 2.0))
    plain = simulate_quadratic(base, 6)
    rotated = simulate_quadratic(replace(base, rotation_seed=42), 6)
    assert plain.thetas.tolist()[0] == rotated.thetas.tolist()[0]
    for got, other in zip(rotated.thetas.tolist()[1:], plain.thetas.tolist()[1:]):
        assert max(abs(x - y) for x, y in zip(got, other)) > 1e-3


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
        np.testing.assert_allclose(np.asarray(trace.thetas)[t], factor**t * theta0, atol=1e-10)


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
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        QuadraticSpec(eigenvalues=())
    for negative in ({"alpha": -0.1}, {"mu": -0.1}):
        with pytest.raises(ValueError, match="non-negative"):
            QuadraticSpec(eigenvalues=(1.0,), **negative)
    with pytest.raises(ValueError, match="at least 2 steps"):
        simulate_quadratic(QuadraticSpec(eigenvalues=(1.0,)), 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, build",
    [
        ("eigenvalues", lambda v: QuadraticSpec(eigenvalues=(2.0, v))),
        ("alpha", lambda v: QuadraticSpec(eigenvalues=(1.0,), alpha=v)),
        ("mu", lambda v: QuadraticSpec(eigenvalues=(1.0,), mu=v)),
        ("eta", lambda v: QuadraticSpec(eigenvalues=(1.0,), eta=(0.1, v))),
        ("theta_init", lambda v: QuadraticSpec(eigenvalues=(1.0,), theta_init=(v,))),
        ("eta_scale", lambda v: WidthSpec(eta_scale=v)),
        ("init_std_scale", lambda v: WidthSpec(init_std_scale=v)),
    ],
)
def test_non_finite_spec_value_names_its_field(field, build, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        build(value)


# --- every number of lemma.json and eos.json ---

_ROTATED = {"eigenvalues": [5.0, 2.0, 0.5], "alpha": 0.05, "mu": 0.8,
            "theta_init": [1.0, -1.0, 2.0], "rotation_seed": 42}  # demo 03's spec
_D5 = {"eigenvalues": [9.0, 4.5, 2.0, 0.75, 0.1], "alpha": 0.2, "mu": 0.6,
       "theta_init": [1.0, -0.5, 0.25, 2.0, -1.5]}
_OUTPUT_PARAMS = {
    ("lemma", "default"): None,
    ("lemma", "rotated"): {**_ROTATED, "eta": [0.12], "steps": 6},
    ("lemma", "d5"): {**_D5, "eta": [0.05, 0.08, 0.11], "steps": 8},
    ("eos", "default"): None,
    ("eos", "rotated"): {**_ROTATED, "eta_grid": [0.05, 0.2, 0.3], "steps": 40},
    ("eos", "d5"): {**_D5, "eta_grid": [0.02, 0.1, 0.2], "steps": 60},
}
# every float of the output file as float.hex, in document order
_OUTPUT_PINS = {
    ("lemma", "default"): ["0x1.0624dd2f1a9fcp-5"] + ["0x1.0624dd2f1a9fdp-5"] * 4,
    ("lemma", "rotated"): [
        "0x1.cbdb84129006ep-3", "0x1.66d78311cb624p-6", "0x1.50303af50d4c9p-1",
        "0x1.50303af50d4c9p-1", "0x1.66d78311cb624p-6",
        "0x1.1826269bbd28cp-5", "0x1.69815dcd40182p-7", "0x1.52af0a2aad8e0p-2",
        "0x1.52af0a2aad8e0p-2", "0x1.69815dcd40182p-7",
        "0x1.bd9c6b06b013dp-7", "0x1.f5d6f3fd0ad5bp-8", "0x1.d628ab13dc727p-3",
        "0x1.d628ab13dc727p-3", "0x1.f5d6f3fd0ad5bp-8",
    ],
    ("lemma", "d5"): [
        "0x1.a1de0bb971a63p-3", "0x1.54c91a90a4fe7p-9", "0x1.4e47d581a7348p+0",
        "0x1.4e47d581a7348p+0", "0x1.54c91a90a4fe7p-9",
        "0x1.27efaa5396d21p-5", "-0x1.b30289c4ef29ap-2", "0x1.2f7afca8d8b81p-1",
        "-0x1.b30289c4ef29ap-2", "0x1.55f5ef25e2624p-8",
        "0x1.5b5224f169fa5p-6", "-0x1.3da5d54b199dfp-2", "0x1.bb352f1a5c0e2p-2",
        "-0x1.3da5d54b199dfp-2", "0x1.f367aafd0d48fp-9",
        "0x1.c5ea8cdfa82bap-7", "-0x1.e1b782102b306p-3", "0x1.5010a673c8e92p-2",
        "-0x1.e1b782102b306p-3", "0x1.7aad4a957a100p-9",
    ],
    ("eos", "default"): [
        "0x1.47ae147ae147bp-7", "0x1.198ffda57e903p-5", "0x1.999999999999ap-5", "0x0.0p+0",
        "0x1.999999999999ap-4", "0x0.0p+0", "0x1.1eb851eb851ecp-3", "0x0.0p+0",
        "0x1.5c28f5c28f5c3p-3", "0x1.3df35c0aa5332p-8", "0x1.851eb851eb852p-3",
        "0x1.67fe2604a2ba9p+7",
    ],
    ("eos", "rotated"): [
        "0x1.999999999999ap-5", "0x1.13c30e558c38fp+0", "0x1.999999999999ap-3",
        "0x1.3054f7c11695dp-7", "0x1.3333333333333p-2", "0x1.27a98de348706p+6",
    ],
    ("eos", "d5"): [
        "0x1.47ae147ae147bp-6", "0x1.8a07cf1794143p-2", "0x1.999999999999ap-4",
        "0x1.c388e5a0a7a6ap-1", "0x1.999999999999ap-3", "0x1.638175d563637p+7",
    ],
}


@pytest.mark.parametrize("verb, case", list(_OUTPUT_PINS))
def test_theory_outputs_pinned_bits(tmp_path, capsys, verb, case):
    out = tmp_path / "out"
    argv = ["theory", verb, "--out", str(out)]
    if _OUTPUT_PARAMS[verb, case] is not None:
        params = tmp_path / "params.json"
        params.write_text(json.dumps(_OUTPUT_PARAMS[verb, case]), encoding="utf-8")
        argv += ["--params", str(params)]
    assert main(argv) == 0
    floats = []
    json.loads((out / f"{verb}.json").read_bytes(),
               parse_float=lambda text: floats.append(float(text).hex()))
    assert floats == _OUTPUT_PINS[verb, case]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
def test_eos_checks_every_eta_before_the_first_simulation(monkeypatch, bad):
    calls = []
    simulate = theory.simulate_quadratic
    monkeypatch.setattr(theory, "simulate_quadratic", lambda *a: calls.append(a) or simulate(*a))
    with pytest.raises(ValueError):  # a NaN or inf names eta; -0.1 is no learning rate
        eos_angle_sweep(EOS_BASE, [0.1, bad])
    assert calls == []


# --- large-width alignment ---


def test_width_zero_update_gives_exact_one():
    curve = width_alignment(WidthSpec(widths=(8, 16), eta_scale=0.0, seed=3))
    assert all(cos == 1.0 for _, cos, _ in curve.points)
    assert curve.fitted_loglog_slope is None


def test_width_alignment_small_widths_monotone():
    curve = width_alignment(WidthSpec(widths=(32, 128, 512), eta_scale=1.0, seed=5))
    gaps = [one_minus for _, _, one_minus in curve.points]
    assert gaps == sorted(gaps, reverse=True)
    assert all(0.0 < g < 1.0 for g in gaps)


def test_width_alignment_deterministic():
    a = width_alignment(WidthSpec(widths=(32, 64), seed=9))
    b = width_alignment(WidthSpec(widths=(32, 64), seed=9))
    assert a.points == b.points


# (width, cos, 1 - cos) as float.hex, and the fitted slope, of three specs
_WIDTH_PINS = [
    (WidthSpec(widths=(3, 100, 129, 1024), seed=7),
     [(3, "0x1.b622845e5469ep-1", "0x1.2775ee86ae588p-3"),
      (100, "0x1.fd652e42c978cp-1", "0x1.4d68de9b43a00p-8"),
      (129, "0x1.fdd4329d917e8p-1", "0x1.15e6b13740c00p-8"),
      (1024, "0x1.ffc5f4f20427fp-1", "0x1.d0586fdec0800p-12")],
     "-0x1.f81cbe220596cp-1"),
    (WidthSpec(widths=(3, 100, 129), steps=3, eta_scale=2.5, init_std_scale=0.5, seed=11),
     [(3, "0x1.9dbae6a7ef0a6p-4", "0x1.cc48a32b021ebp-1"),
      (100, "0x1.863fc8fc2c439p-1", "0x1.e700dc0f4ef1cp-3"),
      (129, "0x1.9722004c6260dp-1", "0x1.a377fece767ccp-3")],
     "-0x1.8c87bce722eacp-2"),
    (WidthSpec(widths=(1024,), steps=3, eta_scale=0.3, init_std_scale=3.0, seed=12),
     [(1024, "0x1.fffe2e832a9d4p-1", "0x1.d17cd562c0000p-17")],
     None),
]


@pytest.mark.parametrize("case", range(len(_WIDTH_PINS)))
def test_width_alignment_pinned_bits(case):
    spec, points, slope = _WIDTH_PINS[case]
    curve = width_alignment(spec)
    assert [(n, cos.hex(), gap.hex()) for n, cos, gap in curve.points] == points
    assert (None if curve.fitted_loglog_slope is None else curve.fitted_loglog_slope.hex()) == slope


def test_width_alignment_peak_memory():
    # W0, drawn in place from lane blocks: one n x n float64 array
    n = 512
    tracemalloc.start()
    try:
        width_alignment(WidthSpec(widths=(n,), seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8, peak / (n * n * 8)


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
    assert [(n, cos.hex(), gap.hex()) for n, cos, gap in curve.points] == [
        (64, "0x1.fd736c52a63a7p-1", "0x1.4649d6ace2c80p-8"),
        (256, "0x1.fef56c4cc53edp-1", "0x1.0a93b33ac1300p-9"),
        (1024, "0x1.ffbac8e6aadd2p-1", "0x1.14dc65548b800p-11"),
        (4096, "0x1.fff057143bf65p-1", "0x1.f51d788136000p-14"),
    ]
    assert curve.fitted_loglog_slope.hex() == "-0x1.cf1030b6c06a5p-1"


def test_width_json_does_not_depend_on_blas_threads(tmp_path):
    # vec(W) of widths 128 and 256 holds 16 384 and 65 536 values, past the
    # length from which OpenBLAS splits one dot over its threads
    params = tmp_path / "w.json"
    params.write_text('{"widths": [128, 256]}', encoding="utf-8")
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
