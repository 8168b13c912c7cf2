"""Generated hard trajectories against long-double references.

Each example writes a store of 2-12 checkpoints in 1-3 tensors of F16, F32
or F64 whose columns straddle the Gram pass's 4096-column chunks: a random
walk, a near-converged run, a collapse toward 0, edge-of-stability sign
flips or a walk with repeated checkpoints, scaled by 2^e for e in
[-120, 500]. ``map`` (from the absolute origin and from a drawn
checkpoint tau), ``spectra`` and ``hallmarks`` (omega, omega0 and the
three norm series at a drawn lag k) then run through ``cli.main``, and
every value is checked against ``tests/oracles.py`` at the tolerances of
the fixed-case oracle tests. The one other outcome allowed is a single
typed JSON error whose diagnosis is true of the stored values.
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from oracles import jacobi_eigs, longdouble_gram, norm_oracle
from trajkit import Checkpoint, Dtype, TensorRecord, write_store
from trajkit.cli import main

CHUNK = 4096
KINDS = ("walk", "near_converged", "collapse", "eos", "repeated")
NORMS = ("param_norm", "dist_from_init", "update_norm")
TINY = sys.float_info.min  # a smaller square is zero, or underflowed


@st.composite
def trajectories(draw):
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(KINDS))
    e = draw(st.integers(-120, 500))
    p = draw(st.integers(CHUNK + 1, 2 * CHUNK + 500))
    n_tensors = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.integers(1, p - 1), min_size=n_tensors - 1,
                         max_size=n_tensors - 1, unique=True))
    # a dtype whose range holds 2^e |theta|, and now and then an F16 tensor
    # that overflows or underflows at this scale
    fits = [Dtype.F64, *([Dtype.F32] if e <= 100 else []),
            *([Dtype.F16] if -10 <= e <= 8 else [])]
    dtypes = draw(st.lists(st.sampled_from(fits), min_size=n_tensors, max_size=n_tensors))
    if draw(st.integers(0, 9)) == 0:
        dtypes[0] = Dtype.F16
    k = draw(st.integers(1, min(3, n - 1)))
    tau = draw(st.integers(0, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n, p, e, sorted(cuts), dtypes, k, tau, seed


def _theta(kind: str, n: int, p: int, rng) -> np.ndarray:
    """Unscaled float64 checkpoints of one trajectory kind."""
    out = [rng.standard_normal(p)]
    if kind == "collapse":  # a random walk whose norm shrinks 0.5-0.9x per step
        factor = rng.uniform(0.5, 0.9)
        for _ in range(1, n):
            out.append(out[-1] + 0.1 * rng.standard_normal(p))
        return np.array(out) * factor ** np.arange(n)[:, None]
    v = rng.standard_normal(p)
    for t in range(1, n):
        if kind == "near_converged":  # updates 1e-12 to 1e-6 of |theta|
            noise = rng.standard_normal(p)
            step = 10 ** rng.uniform(-12, -6) * np.linalg.norm(out[-1])
            out.append(out[-1] + step * noise / np.linalg.norm(noise))
        elif kind == "eos":  # steps flip along v, with a small drift
            out.append(out[-1] + (-1) ** t * 0.05 * v + 1e-3 * rng.standard_normal(p))
        elif kind == "repeated" and rng.random() < 0.4:
            out.append(out[-1].copy())
        else:
            out.append(out[-1] + 0.1 * rng.standard_normal(p))
    return np.array(out)


def _write(case, store: Path):
    """The store's manifest path and its stored values as float64 rows."""
    kind, n, p, e, cuts, dtypes, _, _, seed = case
    theta = np.ldexp(_theta(kind, n, p, np.random.default_rng(seed)), e)
    with np.errstate(over="ignore"):  # an F16 cast may overflow on purpose
        parts = [part.astype(dtype.np_dtype)
                 for part, dtype in zip(np.split(theta, cuts, axis=1), dtypes)]
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord(f"t{j}", dtype, (part.shape[1],), part[i])
            for j, (part, dtype) in enumerate(zip(parts, dtypes))
        ])
        for i in range(n)
    ]
    return write_store(ckpts, store), np.hstack([part.astype(np.float64) for part in parts])


def _run(argv: list[str]):
    """(exit code, the stderr lines) of one CLI run, with no warning let out."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        rc = main(argv)
    # a warning would be one more stderr line from a CLI process
    assert [str(w.message) for w in caught] == []
    return rc, stderr.getvalue().splitlines()


def _cosines(gram: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diagonal(gram))
    return gram / np.outer(d, d)


def _column(path: Path, index: int) -> list[float]:
    with open(path, newline="") as f:
        return [float(row[index]) for row in list(csv.reader(f))[1:]]


def _matrix(path: Path) -> np.ndarray:
    with open(path, newline="") as f:
        return np.array(list(csv.reader(f))[1:], dtype=np.float64)


def _check_eigenvalues(got: list[float], ref: np.ndarray, entry_tol: float) -> None:
    """An entry error of at most entry_tol times the largest entry moves each
    eigenvalue by at most n times that (Weyl), and the solvers agree to 1e-12
    of the matrix norm. Both sides are scaled by the power of two that takes
    the largest entry into [0.5, 1), exactly, so the norms cannot overflow."""
    ref = np.asarray(ref, dtype=np.float64)
    shift = -np.frexp(np.max(np.abs(ref)))[1]
    scaled = np.ldexp(ref, shift)
    want = jacobi_eigs(scaled)
    tol = ref.shape[0] * entry_tol * np.max(np.abs(scaled)) + 1e-12 * np.linalg.norm(want)
    assert np.max(np.abs(np.ldexp(got, shift) - want)) <= tol


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectories())
def test_generated_trajectories_match_long_double(case):
    kind, n, _, e, _, dtypes, k, tau, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest, theta = _write(case, tmp / "store")
        measures = [arg for m in NORMS for arg in ("--measure", m)]
        runs = {
            "map": ["map"],
            "map_tau": ["map", "--origin", f"ckpt:{tau}"],  # the store's index is its row
            "spectra": ["spectra"],
            "hallmarks": ["hallmarks", *measures, "--k", str(k)],
        }
        results = {
            verb: _run([*argv, "--manifest", str(manifest), "--out", str(tmp / verb)])
            for verb, argv in runs.items()
        }
        outcome = {verb: (rc, json.loads(err[0])["error"] if err else None)
                   for verb, (rc, err) in results.items()}
        event(f"{kind}, {'/'.join(d.name for d in dtypes)}: {outcome['spectra']}")
        for rc, err in results.values():
            assert len(err) == (rc != 0)

        if not np.isfinite(theta).all():
            assert set(outcome.values()) == {(2, "NonFinitePayload")}
            return
        gram = longdouble_gram(theta)
        gram0 = longdouble_gram(theta[1:], origin=theta[0])
        gram_tau = longdouble_gram(np.delete(theta, tau, axis=0), origin=theta[tau])
        reads = {"map": [gram], "map_tau": [gram_tau], "spectra": [gram, gram0],
                 "hallmarks": [gram, gram0]}
        for verb, refs in reads.items():
            # a zero point, or a point equal to the origin checkpoint
            degenerate = min(np.diagonal(ref).min() for ref in refs) < TINY
            assert outcome[verb] == ((2, "DegenerateVector") if degenerate else (0, None))

        # the cosine oracle tests' 1e-14 per entry
        for verb, ref in (("map", gram), ("map_tau", gram_tau)):
            if outcome[verb] == (0, None):
                got = _matrix(tmp / verb / "map.csv")
                assert np.max(np.abs(got - _cosines(ref))) <= 1e-14
        if outcome["spectra"] != (0, None):
            return

        # the Gram and cosine oracle tests' 1e-9 of the largest entry and 1e-14
        spectra = tmp / "spectra"
        for name, ref in (("K", gram), ("K0", gram0)):
            _check_eigenvalues(_column(spectra / f"{name}.csv", 0), ref, 1e-9)
        for name, ref in (("C", gram), ("C0", gram0)):
            _check_eigenvalues(_column(spectra / f"{name}.csv", 0), _cosines(ref), 1e-14)

        hallmarks = tmp / "hallmarks"
        summary = json.loads((hallmarks / "summary.json").read_text())
        assert abs(summary["omega"] - float(np.mean(_cosines(gram)))) <= 1e-14
        assert abs(summary["omega0"] - float(np.mean(_cosines(gram0)))) <= 1e-14
        for measure in NORMS:
            got = np.array(_column(hallmarks / f"{measure}.csv", 1))
            want = np.array([v for _, v in norm_oracle(theta, measure, k=k)])
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30)) <= 1e-12
