"""The angle rule (``trajkit.angles``): one cosine, one degeneracy test, and
outputs that scaling the whole trajectory by a power of two leaves bit for
bit, down to the scale where the squares underflow."""

import json
import math
import sys

import numpy as np
import pytest

from conftest import in_memory_store
from trajkit import angles, ckptstore, theory
from trajkit.ckptstore import Checkpoint, Dtype, TensorRecord, TrajectoryStore, write_store
from trajkit.cli import main
from trajkit.errors import DegenerateVector
from trajkit.hallmarks import AngularMeasureKind, angular_series
from trajkit.kernel import trajectory_map


def test_cosine_is_the_clamped_quotient_of_the_norms():
    assert angles.cosine(3.0, 4.0, 9.0) == 0.5
    assert angles.cosine(1.0 + 2.0**-52, 1.0, 1.0) == 1.0
    assert angles.cosine(-2.0, 1.0, 1.0) == -1.0
    assert angles.angle_degrees(0.0, 2.0, 3.0) == 90.0
    assert angles.angle_degrees(-1.0, 1.0, 1.0) == 180.0
    assert angles.cosine(0.0, angles.TINY, angles.TINY) == 0.0


@pytest.mark.parametrize("aa", [0.0, 5e-324, sys.float_info.min / 2, -1.0, math.nan])
def test_a_square_below_the_smallest_normal_is_degenerate(aa):
    for args in ((0.0, aa, 1.0), (0.0, 1.0, aa)):
        with pytest.raises(DegenerateVector, match="zero, or its square underflows"):
            angles.cosine(*args)


# --- trajectories scaled by a power of two ---

N = 8
SHAPES = (("a", (3, 4)), ("b", (10,)))
P = sum(math.prod(dims) for _, dims in SHAPES)
ANGULAR = [m.value for m in AngularMeasureKind]
NORMS = ["param_norm", "dist_from_init", "update_norm"]
RUNS = {
    "k1": ["hallmarks", "--measure", "all"],
    "k2": ["hallmarks", "--measure", "all", "--k", "2"],
    "map": ["map"],
    "map_tau": ["map", "--origin", "ckpt:3"],
    "spectra": ["spectra"],
}


def points() -> np.ndarray:
    """A random walk whose steps shrink from 1e-1 to 1e-3 of its start, with
    a component that flips sign each step."""
    rng = np.random.default_rng(23)
    steps = rng.standard_normal((N - 1, P)) * np.geomspace(1e-1, 1e-3, N - 1)[:, None]
    steps[:, 0] += 0.05 * (-1.0) ** np.arange(N - 1)
    return np.cumsum(np.vstack([rng.standard_normal(P), steps]), axis=0)


def f64_store(rows: np.ndarray, out) -> str:
    ckpts = []
    for i, row in enumerate(rows):
        parts = np.split(row, np.cumsum([math.prod(dims) for _, dims in SHAPES])[:-1])
        ckpts.append(Checkpoint(i, f"e{i}", [
            TensorRecord(name, Dtype.F64, dims, part) for (name, dims), part in zip(SHAPES, parts)
        ]))
    return str(write_store(ckpts, out))


def outputs(manifest: str, out) -> dict:
    """Every output file's text by run and name, and ω and ω₀ from summary.json."""
    got = {}
    for run, argv in RUNS.items():
        assert main([*argv, "--manifest", manifest, "--out", str(out / run)]) == 0
        got.update({(run, f.name): f.read_text() for f in (out / run).iterdir()})
        if run.startswith("k"):
            summary = json.loads(got.pop((run, "summary.json")))
            got[run, "omega"] = (summary["omega"], summary["omega0"])
    return got


def norms(text: str) -> list[float]:
    return [float(line.split(",")[1]) for line in text.splitlines()[1:]]


@pytest.mark.parametrize("memory", [False, True], ids=["on-disk", "in-memory"])
def test_power_of_two_scales_keep_every_angle(tmp_path, monkeypatch, capsys, memory):
    if memory:
        monkeypatch.setattr(ckptstore, "open_store", in_memory_store)
    rows = points()
    want = outputs(f64_store(rows, tmp_path / "s0"), tmp_path / "o0")
    same = [(run, f"{m}.csv") for run in ("k1", "k2") for m in ANGULAR]
    same += [("map", "map.csv"), ("map_tau", "map.csv"), ("k1", "omega"), ("k2", "omega")]
    same += [("spectra", "C.csv"), ("spectra", "C0.csv")]
    for e in (-120, -110, -100, 100, 500):
        got = outputs(f64_store(np.ldexp(rows, e), tmp_path / f"s{e}"), tmp_path / f"o{e}")
        for key in same:
            assert got[key] == want[key], (e, key)
        for key in [(run, f"{m}.csv") for run in ("k1", "k2") for m in NORMS]:
            assert norms(got[key]) == [math.ldexp(v, e) for v in norms(want[key])], (e, key)
    capsys.readouterr()

    manifest = f64_store(np.ldexp(rows, -540), tmp_path / "tiny")
    for run in ("k1", "map"):
        out = tmp_path / "tiny_out" / run
        assert main([*RUNS[run], "--manifest", manifest, "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        err = json.loads(line)
        assert err["error"] == "DegenerateVector" and "underflows" in err["detail"]
        assert not (out / "map.csv").exists()


def test_updates_whose_squares_underflow_have_no_angle():
    # |theta|^2 is about 2^-1000, a normal number; the updates' squares are not
    rows = np.ldexp(points(), -504)
    rows[1:] = rows[0] + np.ldexp(points()[1:] - points()[0], -534)
    store = TrajectoryStore.from_arrays(rows)
    assert trajectory_map(store).n == N
    with pytest.raises(DegenerateVector, match=r"consecutive_updates at t=1: .*underflows"):
        angular_series(store, AngularMeasureKind.CONSECUTIVE_UPDATES)


# --- the edge-of-stability sweep ---


def test_eos_skips_a_zero_update(monkeypatch):
    deltas = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 0.0], [-1.0, -3.0]])
    thetas = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])
    trace = theory.QuadraticTrace(thetas, deltas, np.einsum("ij,ij->i", deltas[:-1], deltas[1:]))
    monkeypatch.setattr(theory, "simulate_quadratic", lambda spec, steps: trace)
    # the last half of the 5 consecutive-update angles: steps 2 and 3 meet the zero update
    [point] = theory.eos_angle_sweep(theory.EOS_BASE, [0.1], steps=6)
    assert point.mean_angle_deg == angles.angle_degrees(1.0, 1.0, 10.0)
    assert point.error is None
