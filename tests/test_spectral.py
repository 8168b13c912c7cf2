import json
import math
import warnings

import numpy as np
import pytest

from oracles import jacobi_eigs, power_iteration_eigs
from trajkit import (
    Checkpoint,
    Dtype,
    MatrixId,
    TensorRecord,
    TrajectoryStore,
    symmetric_eigenvalues,
    trajectory_spectra,
    write_store,
)
from trajkit.cli import main
from trajkit.errors import EmptyTrajectory, NoConvergence, NotSymmetric

from conftest import random_store


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def eigenvalues(m):
    return symmetric_eigenvalues(m).eigenvalues


def test_identity_spectrum():
    np.testing.assert_array_equal(eigenvalues(np.eye(4)), np.ones(4))


def test_two_by_two_known():
    eigs = eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(eigs, [3.0, 1.0], atol=1e-14)


def test_diagonal_matrix_sorted():
    eigs = eigenvalues(np.diag([1.0, 5.0, -2.0]))
    np.testing.assert_array_equal(eigs, [5.0, 1.0, -2.0])


def test_one_by_one():
    np.testing.assert_array_equal(eigenvalues(np.array([[7.0]])), [7.0])


def test_jacobi_oracle_matches_power_iteration_oracle(rng):
    # the two oracles share no code with each other or with LAPACK
    np.testing.assert_array_equal(jacobi_eigs(np.diag([1.0, 5.0, -2.0])), [5.0, 1.0, -2.0])
    np.testing.assert_array_equal(jacobi_eigs(np.zeros((3, 3))), np.zeros(3))
    for _ in range(25):
        m = random_symmetric(rng, int(rng.integers(1, 13)))
        assert np.max(np.abs(jacobi_eigs(m) - power_iteration_eigs(m))) <= 1e-9


def test_matches_jacobi_oracle(rng):
    for _ in range(25):
        m = random_symmetric(rng, int(rng.integers(1, 40)))
        got = eigenvalues(m)
        assert np.max(np.abs(got - jacobi_eigs(m))) <= 1e-12 * max(np.linalg.norm(m), 1.0)


def test_solver_failure_is_no_convergence(monkeypatch, tmp_path, capsys):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence):
        symmetric_eigenvalues(np.eye(3))
    pts = np.random.default_rng(1).standard_normal((4, 6))
    manifest = write_store(
        [
            Checkpoint(i, f"c{i}", [TensorRecord("w", Dtype.F64, (6,), pts[i])])
            for i in range(4)
        ],
        tmp_path / "store",
    )
    rc = main(["spectra", "--manifest", str(manifest), "--out", str(tmp_path / "s")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NoConvergence"


def test_matches_power_iteration_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        m = random_symmetric(rng, n)
        got = symmetric_eigenvalues(m).eigenvalues
        want = power_iteration_eigs(m)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_trace_preserved(rng):
    for _ in range(20):
        m = random_symmetric(rng, int(rng.integers(2, 10)))
        eigs = symmetric_eigenvalues(m).eigenvalues
        assert abs(eigs.sum() - np.trace(m)) <= 1e-9 * max(np.linalg.norm(m), 1.0)


def test_rotation_invariance(rng):
    m = np.diag([4.0, 2.0, 1.0, 0.5])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    eigs = symmetric_eigenvalues(q @ m @ q.T).eigenvalues
    np.testing.assert_allclose(eigs, [4.0, 2.0, 1.0, 0.5], atol=1e-12)


def test_not_symmetric_raises():
    with pytest.raises(NotSymmetric):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetric):
        symmetric_eigenvalues(np.ones((2, 3)))


# --- trajectory spectra ---


def test_spectra_orthonormal_pair():
    store = TrajectoryStore.from_arrays([[1.0, 0.0], [0.0, 1.0]])
    spectra = trajectory_spectra(store)
    np.testing.assert_allclose(spectra[MatrixId.K].eigenvalues, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(spectra[MatrixId.C].eigenvalues, [1.0, 1.0], atol=1e-12)


def test_spectra_linear_path_rank_one():
    pts = np.outer(np.arange(1.0, 6.0), [1.0, 2.0])
    spectra = trajectory_spectra(store := TrajectoryStore.from_arrays(pts))
    c = spectra[MatrixId.C].eigenvalues
    # perfectly aligned trajectory: C = ones, spectrum [n, 0, ..., 0]
    np.testing.assert_allclose(c, [5.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
    k = spectra[MatrixId.K].eigenvalues
    assert k[0] > 0 and np.max(np.abs(k[1:])) <= 1e-10 * k[0]
    assert store.n_points == 5


def test_cosine_spectrum_sums_to_n(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        store = random_store(rng, n, 30)
        spectra = trajectory_spectra(store)
        for mid in (MatrixId.C, MatrixId.C0):
            eigs = spectra[mid].eigenvalues
            expect = eigs.shape[0]
            assert abs(eigs.sum() - expect) <= 1e-8 * expect


def test_gram_spectra_nonnegative(rng):
    spectra = trajectory_spectra(random_store(rng, 7, 40))
    assert np.all(spectra[MatrixId.K].eigenvalues >= 0.0)
    assert np.all(spectra[MatrixId.K0].eigenvalues >= 0.0)


def test_rank_bounded_by_ambient_dim(rng):
    # 6 points in a 2-dimensional space: at most 2 nonzero Gram eigenvalues
    store = random_store(rng, 6, 2)
    eigs = trajectory_spectra(store)[MatrixId.K].eigenvalues
    assert np.max(np.abs(eigs[2:])) <= 1e-9 * eigs[0]


def test_relative_spectra_have_n_minus_one_rows(rng):
    spectra = trajectory_spectra(random_store(rng, 5, 20))
    assert spectra[MatrixId.K0].n == 4
    assert spectra[MatrixId.C0].n == 4
    assert spectra[MatrixId.K].n == 5


def test_one_point_store_has_no_relative_spectra():
    with pytest.raises(EmptyTrajectory, match="no points remain"):
        trajectory_spectra(TrajectoryStore.from_arrays([[1.0, 2.0]]))


# --- entries near the float64 limit ---


def limit_store(rows, path) -> str:
    return str(write_store(
        [Checkpoint(i, f"c{i}", [TensorRecord("w", Dtype.F64, (2,), row)])
         for i, row in enumerate(rows)],
        path,
    ))


def run_spectra(manifest, out, capsys, warning_filter):
    """(exit code, stderr lines, warnings) of one spectra run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter, RuntimeWarning)
        rc = main(["spectra", "--manifest", manifest, "--out", str(out)])
    return rc, capsys.readouterr().err.splitlines(), [str(w.message) for w in caught]


def test_spectra_of_a_gram_near_the_float64_limit(tmp_path, capsys):
    # two checkpoints at 60 degrees with |theta|^2 = 1e308: K's entries are
    # finite, and so are its eigenvalues 1.5e308 and 5e307 and K0's 1e308
    s = 1e154
    manifest = limit_store([[s, 0.0], [0.5 * s, math.sqrt(3) / 2 * s]], tmp_path / "store")
    out = tmp_path / "s"
    assert run_spectra(manifest, out, capsys, "always") == (0, [], [])
    for name, want in (("K", [1.5e308, 5e307]), ("K0", [1e308])):
        got = np.loadtxt(out / f"{name}.csv", skiprows=1, ndmin=1)
        assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("warning_filter", ["always", "error"])
def test_an_eigenvalue_past_float64_is_non_finite_payload(tmp_path, capsys, warning_filter):
    # four near-parallel checkpoints with |theta|^2 just below 1e308: every
    # entry of K is finite, its top eigenvalue (about 4e308) is not
    s = 1e154 / math.sqrt(1 + 1e-5)
    rows = [[s, 0.0], [s, 1e-3 * s], [s, 2e-3 * s], [s, 3e-3 * s]]
    manifest = limit_store(rows, tmp_path / "store")
    rc, err, caught = run_spectra(manifest, tmp_path / "s", capsys, warning_filter)
    assert (rc, len(err), caught) == (2, 1, [])
    assert json.loads(err[0]) == {"error": "NonFinitePayload",
                                  "detail": "K: an eigenvalue overflows float64"}
    assert not (tmp_path / "s").exists()
