import json
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import in_memory_store, mixed_dtype_store
from trajkit import (
    Checkpoint,
    Dtype,
    GramMatrix,
    TensorRecord,
    TrajectoryStore,
    ckptstore,
    kernel,
    mds,
    open_store,
    trajectory_map,
    write_store,
)
from trajkit.cli import main


@pytest.fixture
def linear_manifest(tmp_path):
    # five collinear checkpoints: omega is exactly 1
    ckpts = []
    for i in range(5):
        vec = (i + 1.0) * np.array([1.0, 2.0, -1.0])
        ckpts.append(
            Checkpoint(
                index=i,
                label=f"epoch{i}",
                tensors=[TensorRecord("w", Dtype.F64, (3,), vec)],
            )
        )
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    return str(write_store(ckpts, store_dir))


def test_map_writes_csv_and_svg(linear_manifest, tmp_path, capsys):
    out = tmp_path / "map"
    rc = main(["map", "--manifest", linear_manifest, "--out", str(out)])
    assert rc == 0
    assert (out / "map.csv").exists() and (out / "map.svg").exists()
    status = json.loads(capsys.readouterr().out)
    assert status["n"] == 5
    rows = (out / "map.csv").read_text().splitlines()
    assert rows[0].split(",") == [f"epoch{i}" for i in range(5)]
    assert all(float(v) == 1.0 for v in rows[1].split(","))


@pytest.mark.parametrize(
    "bounds", [["--vmin=-inf", "--vmax=inf"], ["--vmin=-1e308", "--vmax=1e308"]]
)
def test_non_finite_heatmap_bounds_are_data_error(linear_manifest, tmp_path, capsys, bounds):
    out = tmp_path / "map"
    rc = main(["map", "--manifest", linear_manifest, *bounds, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "InvalidStyle"
    assert not (out / "map.csv").exists()


def test_bad_heatmap_style_fails_before_the_store_opens(
    linear_manifest, tmp_path, capsys, monkeypatch
):
    def no_open(manifest_path):
        raise AssertionError(f"opened {manifest_path}")

    monkeypatch.setattr(ckptstore, "open_store", no_open)
    argv = ["map", "--manifest", linear_manifest, "--vmin", "1", "--vmax", "0"]
    assert run_error([*argv, "--out", str(tmp_path / "m")], capsys) == (2, "InvalidStyle")
    assert not (tmp_path / "m").exists()


def test_map_relative_origin(linear_manifest, tmp_path):
    out = tmp_path / "rel"
    rc = main(
        ["map", "--manifest", linear_manifest, "--origin", "ckpt:0", "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "map.csv").read_text().splitlines()
    assert len(rows) == 5  # header + 4 rows (origin row omitted)


def test_map_bad_origin_is_usage_error(linear_manifest, tmp_path, capsys):
    rc = main(
        ["map", "--manifest", linear_manifest, "--origin", "nope", "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"


def test_hallmarks_all_measures(linear_manifest, tmp_path, capsys):
    out = tmp_path / "h"
    rc = main(
        ["hallmarks", "--manifest", linear_manifest, "--measure", "all", "--out", str(out)]
    )
    assert rc == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 11  # 8 angular + 3 norm measures
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["omega"] - 1.0) <= 1e-12
    assert abs(summary["omega0"] - 1.0) <= 1e-12
    status = json.loads(capsys.readouterr().out)
    assert abs(status["omega"] - 1.0) <= 1e-12


def test_hallmarks_no_measures_is_data_error(linear_manifest, tmp_path, capsys):
    rc = main(["hallmarks", "--manifest", linear_manifest, "--out", str(tmp_path / "h")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NoMeasuresRequested"


def test_hallmarks_unknown_measure_is_usage_error(linear_manifest, tmp_path, capsys):
    # a bad name fails before the store is read, so no good name's CSV is written
    out = tmp_path / "h"
    for measures in (["bogus"], ["param_norm", "bogus"]):
        argv = ["hallmarks", "--manifest", linear_manifest, "--out", str(out)]
        for name in measures:
            argv += ["--measure", name]
        assert run_error(argv, capsys) == (1, "UsageError")
        assert not list(out.glob("*.csv"))


def test_spectra_outputs_four_files(linear_manifest, tmp_path):
    out = tmp_path / "s"
    rc = main(["spectra", "--manifest", linear_manifest, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "C.csv",
        "C0.csv",
        "K.csv",
        "K0.csv",
    ]
    c = [float(line) for line in (out / "C.csv").read_text().splitlines()[1:]]
    assert abs(c[0] - 5.0) <= 1e-10 and max(abs(v) for v in c[1:]) <= 1e-10


def test_missing_manifest_is_data_error(tmp_path, capsys):
    rc = main(["map", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    json.loads(err[0])  # single machine-readable line


def test_usage_error_on_missing_subcommand(capsys):
    rc = main([])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


# --- theory verbs ---


def test_theory_lemma_default_fixture(tmp_path, capsys):
    out = tmp_path / "lemma"
    rc = main(["theory", "lemma", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "lemma.json").read_text())
    assert payload["all_satisfied"] is True
    assert abs(payload["pairs"][0]["observed"] - 0.032) <= 1e-12


def test_theory_lemma_divergent_params(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(
        json.dumps({"eigenvalues": [10.0], "eta": [10.0], "theta_init": [1.0], "steps": 2000})
    )
    out = tmp_path / "lemma"
    rc = main(["theory", "lemma", "--params", str(params), "--out", str(out)])
    assert rc != 0
    assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteIterate"
    assert json.loads((out / "lemma.json").read_text())["error"] == "NonFiniteIterate"


def test_theory_eos_default_fixture(tmp_path):
    out = tmp_path / "eos"
    rc = main(["theory", "eos", "--out", str(out)])
    assert rc == 0
    points = json.loads((out / "eos.json").read_text())["points"]
    assert points[0]["mean_angle_deg"] < 90.0
    assert points[-1]["mean_angle_deg"] > 90.0


def test_theory_width_zero_update(tmp_path):
    params = tmp_path / "w.json"
    params.write_text(json.dumps({"widths": [8, 16], "eta_scale": 0.0}))
    out = tmp_path / "width"
    rc = main(["theory", "width", "--params", str(params), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "width.json").read_text())
    assert all(p["cos"] == 1.0 for p in payload["points"])


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, as a strict parser does."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("params", [{"widths": [64]}, {"widths": [8, 16], "eta_scale": 0.0}],
                         ids=["one-width", "zero-update"])
def test_theory_width_without_a_slope_writes_null(tmp_path, capsys, params):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "width"
    assert main(["theory", "width", "--params", str(path), "--out", str(out)]) == 0
    assert strict_json(capsys.readouterr().out) == {"fitted_loglog_slope": None}
    assert strict_json((out / "width.json").read_text())["fitted_loglog_slope"] is None


def test_theory_width_seed_override(tmp_path):
    params = tmp_path / "w.json"
    params.write_text(json.dumps({"widths": [16, 32]}))
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"width{seed}"
        rc = main(
            [
                "theory",
                "width",
                "--params",
                str(params),
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(json.loads((out / "width.json").read_text()))
    assert outs[0] != outs[1]


@pytest.mark.parametrize("verb", ["lemma", "eos"])
def test_theory_seed_is_width_only(tmp_path, capsys, verb):
    # the lemma and eos sweeps draw no random numbers: a seed would be ignored
    argv = ["theory", verb, "--seed", "1", "--out", str(tmp_path / verb)]
    assert run_error(argv, capsys) == (1, "UsageError")


# --- train verb ---


def test_train_small_spec_emits_store(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "train": {
                    "layer_sizes": [6, 8, 2],
                    "data": {"samples_per_class": 8, "dim": 6, "seed": 3},
                    "epochs": 2,
                    "batch_size": 8,
                }
            }
        )
    )
    out = tmp_path / "run"
    rc = main(["train", "--spec", str(spec), "--out", str(out)])
    assert rc == 0
    status = json.loads(capsys.readouterr().out)
    assert (out / "record.json").exists()
    # emitted store is immediately consumable by the analysis verbs
    rc = main(["map", "--manifest", status["manifest"], "--out", str(tmp_path / "m")])
    assert rc == 0


def test_train_grid(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "train": {
                    "layer_sizes": [6, 640, 2],  # 5762 parameters: two column chunks
                    "data": {"samples_per_class": 8, "dim": 6, "seed": 3},
                    "epochs": 2,
                    "batch_size": 8,
                },
                "grid": [
                    {"name": "a", "mu": 0.9, "wd": 1e-4},
                    {"name": "b", "mu": 0.0, "wd": 0.0},
                ],
            }
        )
    )
    out = tmp_path / "grid"
    rc = main(["train", "--spec", str(spec), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "grid.json").read_text())
    assert set(report) == {"a", "b"}
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in report.values())
    # the grid's in-memory omega is the one its written store gives on disk
    for name, omega in report.items():
        with open_store(out / name / "manifest.json") as store:
            for threads in (1, 2, 3):
                assert mds(trajectory_map(store, threads=threads)) == omega


def test_on_disk_and_in_memory_outputs_are_bit_equal(tmp_path, monkeypatch):
    manifest = str(mixed_dtype_store(tmp_path / "store"))
    runs = [["map"], ["map", "--origin", "ckpt:2"], ["hallmarks", "--measure", "all"], ["spectra"]]

    def outputs(threads: int) -> dict[str, bytes]:
        files = {}
        for i, verb in enumerate(runs):
            out = tmp_path / "out" / str(i)  # summary.json names its series files
            argv = [*verb, "--manifest", manifest, "--threads", str(threads), "--out", str(out)]
            assert main(argv) == 0
            files.update({f"{i}/{f.name}": f.read_bytes() for f in out.iterdir()})
        return files

    want = outputs(1)
    # map.csv + map.svg twice, 11 series CSVs + summary.json, K/K0/C/C0
    assert len(want) == 2 + 2 + 12 + 4
    for threads in (2, 3):
        assert outputs(threads) == want
    monkeypatch.setattr(ckptstore, "open_store", in_memory_store)
    for threads in (1, 2, 3):
        assert outputs(threads) == want


def test_mem_budget_caps_the_gram_ring(tmp_path):
    n, chunks = 16, 4
    slot = n * 4096 * 8  # one float64 chunk buffer
    ckpts = [
        Checkpoint(i, f"e{i}", [TensorRecord("w", Dtype.F32, (chunks * 4096,),
                                             np.full(chunks * 4096, i + 1.0))])
        for i in range(n)
    ]
    manifest = str(write_store(ckpts, tmp_path / "store"))
    argv = ["map", "--manifest", manifest, "--threads", "3", "--out", str(tmp_path / "o")]
    assert main(argv) == 0  # first-use allocations of the verb are not the pass's
    for slots in (1, 2, 3):
        tracemalloc.start()
        try:
            assert main([*argv, "--mem-budget", str(slots * slot + slot - 1)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ring, plus O(n^2) partials, staging rows and output text
        assert slots * slot <= peak <= slots * slot + 1000 * n * n


# --- error contract ---


def run_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return rc, json.loads(err[0])["error"]


@pytest.mark.parametrize(
    "manifest",
    [
        '{"version": 1, "checkpoints": [{"label": "a", "path": "ckpt_000000.trajckpt"}]}',
        '{"version": 1, "checkpoints": [{"index": "zero", "path": "ckpt_000000.trajckpt"}]}',
        '{"version": 1, "checkpoints": [',
    ],
    ids=["missing-index", "non-integer-index", "malformed-json"],
)
def test_malformed_manifest_is_data_error(linear_manifest, tmp_path, capsys, manifest):
    path = tmp_path / "store" / "bad.json"
    path.write_text(manifest)
    rc, code = run_error(["map", "--manifest", str(path), "--out", str(tmp_path / "m")], capsys)
    assert (rc, code) == (2, "InvalidManifest")


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("verb", ["map", "hallmarks", "spectra"])
def test_non_finite_checkpoint_is_data_error(tmp_path, capsys, verb, bad):
    ckpts = []
    for i in range(5):
        vec = np.array([1.0 + i, 2.0, -1.0 * i])
        if i == 3:
            vec[1] = bad
        ckpts.append(Checkpoint(i, f"e{i}", [TensorRecord("w", Dtype.F64, (3,), vec)]))
    manifest = str(write_store(ckpts, tmp_path / "store"))
    extra = ["--measure", "all"] if verb == "hallmarks" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, code = run_error(
            [verb, "--manifest", manifest, *extra, "--out", str(tmp_path / "o")], capsys
        )
    assert (rc, code) == (2, "NonFinitePayload")
    # a warning would be one more stderr line from a CLI process
    assert [str(w.message) for w in caught] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
@pytest.mark.parametrize("verb", [["map"], ["hallmarks", "--measure", "all"], ["spectra"]])
def test_analysis_verbs_close_their_stores(linear_manifest, tmp_path, capsys, monkeypatch, verb):
    closed = []
    close = TrajectoryStore.close
    monkeypatch.setattr(TrajectoryStore, "close", lambda self: closed.append(close(self)))
    baseline = len(os.listdir("/proc/self/fd"))
    for threads in ("1", "2"):
        argv = [*verb, "--manifest", linear_manifest, "--threads", threads]
        assert main([*argv, "--out", str(tmp_path / threads)]) == 0
        # fails once the store is open
        assert main([*argv, "--select", "nothing", "--out", str(tmp_path / "x")]) == 2
    assert len(closed) == 4
    assert len(os.listdir("/proc/self/fd")) == baseline


@pytest.mark.parametrize(
    "flag", [["--threads", "0"], ["--threads", "-3"], ["--mem-budget", "-1"]]
)
@pytest.mark.parametrize("verb", [["map"], ["hallmarks", "--measure", "all"], ["spectra"]])
def test_bad_count_is_usage_error(linear_manifest, tmp_path, capsys, monkeypatch, verb, flag):
    # checked with the arguments: a missing manifest is not what fails,
    # and the store is never opened
    argv = [*verb, "--manifest", linear_manifest, *flag, "--out", str(tmp_path / "o")]
    assert run_error(argv, capsys) == (1, "UsageError")
    argv[argv.index(linear_manifest)] = str(tmp_path / "missing.json")
    assert run_error(argv, capsys) == (1, "UsageError")

    def no_open(manifest_path):
        raise AssertionError(f"opened {manifest_path}")

    monkeypatch.setattr(ckptstore, "open_store", no_open)
    assert run_error(argv, capsys) == (1, "UsageError")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, params, expected",
    [
        (["theory", "eos"], None, (2, "IoError")),  # the --params file is missing
        (["theory", "width"], "", (1, "UsageError")),
        (["theory", "lemma"], {"bogus": 1}, (1, "UsageError")),
        (["train"], {"grid": [{"name": "a"}]}, (1, "UsageError")),
        (["train"], {"train": {"layer_sizes": [3, 4, 2]}}, (1, "UsageError")),
        (["train"], {"train": {"eta": 1e6, "epochs": 3}}, (2, "NonFiniteLoss")),
    ],
    ids=["eos-missing", "width-empty", "lemma-bad-key", "grid-entry", "train-layers",
         "train-diverges"],
)
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, params, expected):
    path = tmp_path / "params.json"
    if params is not None:
        path.write_text(params if isinstance(params, str) else json.dumps(params))
    flag = "--spec" if argv == ["train"] else "--params"
    out = tmp_path / "out"
    assert run_error([*argv, flag, str(path), "--out", str(out)], capsys) == expected
    assert not out.exists()


def test_indefinite_gram_is_invariant_violation(linear_manifest, tmp_path, capsys, monkeypatch):
    # eigenvalues 3 and -1: far below the clamp floor of -3e-8
    k = GramMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]), norms=np.ones(2),
                   point_labels=["a", "b"])
    monkeypatch.setattr(kernel, "gram_pair", lambda store, sel=None, *, threads=1: (k, k))
    out = tmp_path / "s"
    argv = ["spectra", "--manifest", linear_manifest, "--out", str(out)]
    assert run_error(argv, capsys) == (3, "NegativeGramEigenvalue")
    assert not list(out.glob("*.csv"))


def test_hallmarks_bad_lag_is_usage_error(linear_manifest, tmp_path, capsys):
    argv = ["hallmarks", "--manifest", linear_manifest, "--measure", "all", "--k", "0"]
    rc, code = run_error([*argv, "--out", str(tmp_path / "h")], capsys)
    assert (rc, code) == (1, "UsageError")


def test_malformed_params_file_is_usage_error(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text("{not json")
    argv = ["theory", "eos", "--params", str(params), "--out", str(tmp_path / "e")]
    assert run_error(argv, capsys) == (1, "UsageError")


@pytest.mark.parametrize("verb", ["lemma", "eos", "width"])
def test_unknown_params_key_is_usage_error(tmp_path, capsys, verb):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"bogus": 1}))
    argv = ["theory", verb, "--params", str(params), "--out", str(tmp_path / "t")]
    rc = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "UsageError" and "'bogus'" in error["detail"]


@pytest.mark.parametrize(
    "spec", [{"train": {"bogus": 1}}, {"train": {"data": {"bogus": 1}}}, {"bogus": 1}]
)
def test_unknown_spec_key_is_usage_error(tmp_path, capsys, spec):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    rc = main(["train", "--spec", str(path), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "UsageError" and "'bogus'" in error["detail"]


def test_duplicate_grid_name_is_usage_error(tmp_path, capsys):
    entry = {"name": "a", "mu": 0.9, "wd": 0.0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"train": {"epochs": 1}, "grid": [entry, entry]}))
    argv = ["train", "--spec", str(path), "--out", str(tmp_path / "t")]
    assert run_error(argv, capsys) == (1, "UsageError")


# --- hallmarks: the Gram pass and the series stream side by side ---


def points_store(points, path, dtype=Dtype.F64, sizes=None) -> str:
    """An on-disk store of the rows of ``points``, cut into tensors of ``sizes``."""
    points = np.asarray(points, dtype=np.float64)
    sizes = sizes or [points.shape[1]]
    bounds = np.cumsum([0, *sizes])
    ckpts = [
        Checkpoint(i, f"e{i}", [TensorRecord(f"t{j}", dtype, (sizes[j],), row[a:b])
                                for j, (a, b) in enumerate(zip(bounds, bounds[1:]))])
        for i, row in enumerate(points)
    ]
    return str(write_store(ckpts, path))


@pytest.mark.parametrize(
    "n, argv",
    [(2, ["--measure", "param_norm", "--measure", "consecutive_updates"]),
     (6, ["--k", "3", "--measure", "lagged_updates"]),
     (3, ["--k", "3", "--measure", "apex_at_origin", "--measure", "update_norm"])],
    ids=["consecutive-on-2", "lagged-k3-on-6", "update-norm-k3-on-3"],
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_hallmarks_too_few_points_fail_before_any_payload_read(
    tmp_path, capsys, monkeypatch, n, argv, threads
):
    manifest = points_store(np.arange(1.0, 1.0 + 3 * n).reshape(n, 3), tmp_path / "store")

    def refuse(self, *args, **kwargs):
        raise AssertionError("a payload was read")

    monkeypatch.setattr(TrajectoryStore, "flatten", refuse)
    monkeypatch.setattr(TrajectoryStore, "chunk_matrix", refuse)
    out = tmp_path / "h"
    argv = ["hallmarks", "--manifest", manifest, *argv, "--threads", threads, "--out", str(out)]
    assert run_error(argv, capsys) == (2, "InsufficientPoints")
    assert not list(out.glob("*"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_hallmarks_failing_series_leaves_no_output(tmp_path, capsys, threads):
    # checkpoint 3 repeats checkpoint 2: update 2 is zero, so consecutive_updates
    # fails after param_norm has its whole series
    points = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 3.0], [3.0, 3.0], [4.0, 2.0]])
    manifest = points_store(points, tmp_path / "store")
    out = tmp_path / "h"
    argv = ["hallmarks", "--manifest", manifest, "--measure", "param_norm",
            "--measure", "consecutive_updates", "--threads", threads, "--out", str(out)]
    assert run_error(argv, capsys) == (2, "DegenerateVector")
    assert not list(out.glob("*"))


def straddling_f32_store(path, n=9) -> str:
    """A random walk in float32 with p = 12 500 > 10 000, whose tensors
    straddle the 4096-column chunks."""
    rng = np.random.default_rng(7)
    points = np.cumsum(rng.standard_normal((n, 12500)), axis=0) + rng.standard_normal(12500)
    return points_store(points, path, Dtype.F32, sizes=[3000, 5000, 4500])


@pytest.mark.parametrize("k", ["1", "2"])
def test_hallmarks_outputs_identical_across_threads_and_reruns(tmp_path, k):
    manifest = straddling_f32_store(tmp_path / "store")

    def outputs(threads: str, run: int) -> dict[str, bytes]:
        out = tmp_path / "out"  # summary.json names its series files
        argv = ["hallmarks", "--manifest", manifest, "--measure", "all", "--k", k,
                "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        for f in out.iterdir():
            f.unlink()
        return files

    want = outputs("1", 0)
    assert len(want) == 12  # 11 series CSVs + summary.json
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the passes share the store: switch threads often
    try:
        for threads in ("1", "2", "3", "8"):
            for run in (1, 2):
                assert outputs(threads, run) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "threads, budget_slots, gram_slots, pools",
    [(1, 8, 1, 0), (1, 0, 1, 0), (2, 8, 1, 1), (3, 8, 2, 1), (8, 8, 7, 1), (8, 3, 3, 1),
     (8, 0, 1, 1), (2, 0, 1, 1)],
)
def test_hallmarks_gives_the_gram_pass_the_other_threads(
    tmp_path, monkeypatch, threads, budget_slots, gram_slots, pools
):
    from concurrent import futures

    from trajkit import kernel

    manifest = straddling_f32_store(tmp_path / "store", n=5)
    slots, started = [], []
    gram_pair = kernel.gram_pair

    def recorded(store, sel=None, *, threads):
        slots.append(threads)
        return gram_pair(store, sel, threads=threads)

    class Pool(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(kernel, "gram_pair", recorded)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
    budget = budget_slots * 5 * 4096 * 8
    argv = ["hallmarks", "--manifest", manifest, "--measure", "all", "--threads", str(threads),
            "--mem-budget", str(budget), "--out", str(tmp_path / "h")]
    assert main(argv) == 0
    assert slots == [gram_slots]
    assert started == [1] * pools  # the series' one worker; the Gram pass's pool is kernel's


def test_hallmarks_error_is_the_gram_pass_at_every_thread_count(tmp_path, capsys):
    # both passes meet the NaN; the Gram pass's error is the one reported
    points = np.outer(np.arange(1.0, 7.0), [1.0, 2.0, -1.0])
    points[3, 1] = np.nan
    manifest = points_store(points, tmp_path / "store")
    baseline = threading.active_count()
    lines = []
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        argv = ["hallmarks", "--manifest", manifest, "--measure", "all",
                "--threads", threads, "--out", str(out)]
        assert main(argv) == 2
        lines.append(capsys.readouterr().err)
        assert not list(out.glob("*"))
        assert threading.active_count() == baseline
    assert lines[0] == lines[1] == lines[2]
    error = json.loads(lines[0])
    assert error["error"] == "NonFinitePayload" and "Gram entry" in error["detail"]


def test_theory_width_overflow_is_data_error(tmp_path, capsys):
    # squares of vec(W) that overflow float64 are an error, not cos = 1
    for scale in (1e153, 1e200):
        params = tmp_path / "w.json"
        params.write_text(json.dumps({"widths": [64, 256], "init_std_scale": scale}))
        out = tmp_path / "width"
        argv = ["theory", "width", "--params", str(params), "--out", str(out)]
        assert run_error(argv, capsys) == (2, "NonFiniteIterate")
        assert not (out / "width.json").exists()
