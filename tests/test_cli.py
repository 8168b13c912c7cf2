import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import WaitingStream, in_memory_store, mixed_dtype_store, strict_json
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
    trajgen,
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


def test_map_bad_origin_is_usage_error(linear_manifest, tmp_path, capsys, monkeypatch):
    def no_open(manifest_path):
        raise AssertionError(f"opened {manifest_path}")

    monkeypatch.setattr(ckptstore, "open_store", no_open)  # argparse rejects it first
    for origin in ("nope", "ckpt:", "ckpt:x", "absolute:"):
        argv = ["map", "--manifest", linear_manifest, "--origin", origin]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "UsageError",
            "detail": f"argument --origin: must be 'absolute' or 'ckpt:IDX', got {origin!r}",
        }
        assert not (tmp_path / "x").exists()


def test_map_origin_is_a_manifest_index(tmp_path, capsys):
    # a store saved every fifth step, as train with ckpt_every 5 writes it
    rng = np.random.default_rng(0)
    ckpts = [
        Checkpoint(i, f"epoch{i}", [TensorRecord("w", Dtype.F64, (4,), rng.standard_normal(4))])
        for i in (0, 5, 10)
    ]
    (tmp_path / "store").mkdir()
    manifest = str(write_store(ckpts, tmp_path / "store"))
    out = tmp_path / "m"
    assert main(["map", "--manifest", manifest, "--origin", "ckpt:5", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["origin"] == "ckpt:5"
    rows = [row.split(",") for row in (out / "map.csv").read_text().splitlines()]
    assert rows[0] == ["epoch0", "epoch10"]
    # the map relative to the checkpoint in row 1, the one the manifest indexes 5
    store = TrajectoryStore.from_checkpoints(ckpts)
    want = kernel.compute_cosine_map(kernel.compute_gram(store, 1))
    assert [[float(v) for v in row] for row in rows[1:]] == want.values.tolist()

    # 1 is a row position of this store, but no index of its manifest
    argv = ["map", "--manifest", manifest, "--origin", "ckpt:1", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "OriginOutOfRange",
                   "detail": "origin index 1 not in store of 3 points"}
    assert not (tmp_path / "x").exists()


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
    for measures in (["bogus"], ["param_norm", "bogus"], ["all", "bogus"]):
        argv = ["hallmarks", "--manifest", linear_manifest, "--out", str(out)]
        for name in measures:
            argv += ["--measure", name]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "UsageError"
        assert err["detail"].startswith("argument --measure: invalid choice: 'bogus'")
        assert not out.exists()


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
    for params in (
        {"eigenvalues": [10.0], "eta": [10.0], "theta_init": [1.0], "steps": 2000},
        # finite iterates whose products overflow float64: theta . theta and the
        # update product, or (lambda + alpha)^2 times a factor of exactly 0
        {"eigenvalues": [1.0], "theta_init": [1e160]},
        {"eigenvalues": [1e300], "eta": [1e-300], "theta_init": [1.0]},
    ):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "lemma"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = ["theory", "lemma", "--params", str(path), "--out", str(out)]
            assert run_error(argv, capsys) == (2, "NonFiniteIterate")
        # a warning would be one more stderr line from a CLI process
        assert [str(w.message) for w in caught] == []
        assert strict_json((out / "lemma.json").read_text())["error"] == "NonFiniteIterate"


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
    # the grid's in-memory omega is the one its written store gives on disk,
    # and the one hallmarks reports for that store
    for name, omega in report.items():
        manifest = out / name / "manifest.json"
        with open_store(manifest) as store:
            for threads in (1, 2, 3):
                assert mds(trajectory_map(store, threads=threads)) == omega
        assert main(["hallmarks", "--measure", "param_norm", "--manifest", str(manifest),
                     "--out", str(tmp_path / "h" / name)]) == 0
        assert json.loads((tmp_path / "h" / name / "summary.json").read_text())["omega"] == omega


@pytest.mark.parametrize("threads", ["1", "2"])
def test_map_mean_is_hallmarks_omega(tmp_path, threads):
    # a drifting f32 random walk over two column chunks; map from the absolute
    # origin and hallmarks' omega take K by one rule, so they agree bit for bit
    rng = np.random.default_rng(21)
    walk = rng.standard_normal(5000) + np.cumsum(0.05 * rng.standard_normal((12, 5000)), axis=0)
    ckpts = [Checkpoint(i, f"e{i}", [TensorRecord("w", Dtype.F32, (5000,), row)])
             for i, row in enumerate(walk)]
    common = ["--manifest", str(write_store(ckpts, tmp_path / "store")), "--threads", threads]
    assert main(["map", *common, "--out", str(tmp_path / "m")]) == 0
    assert main(["hallmarks", "--measure", "param_norm", *common, "--out", str(tmp_path / "h")]) == 0
    rows = (tmp_path / "m" / "map.csv").read_text().splitlines()[1:]
    cosines = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert cosines.shape == (12, 12)
    omega = json.loads((tmp_path / "h" / "summary.json").read_text())["omega"]
    assert float(np.mean(cosines)) == omega


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


@pytest.mark.parametrize("key", ["label", "path"])
@pytest.mark.parametrize(
    "verb", [["map"], ["hallmarks", "--measure", "all"], ["spectra"]],
    ids=["map", "hallmarks", "spectra"],
)
def test_manifest_text_utf8_cannot_encode_is_data_error(linear_manifest, tmp_path, capsys,
                                                        monkeypatch, verb, key):
    # json reads the escape "\ud800" as a lone surrogate, which no UTF-8 holds
    manifest = json.loads(Path(linear_manifest).read_text())
    entry = manifest["checkpoints"][2]
    entry[key] = "\ud800x" if key == "label" else entry["path"] + "\ud800"
    path = tmp_path / "store" / "bad.json"
    path.write_text(json.dumps(manifest))
    assert "\\ud800" in path.read_text()

    def no_read(f, path):
        raise AssertionError(f"read the header of {path}")

    monkeypatch.setattr(ckptstore, "_read_header", no_read)
    out = tmp_path / "o"
    argv = [*verb, "--manifest", str(path), "--out", str(out)]
    assert run_error(argv, capsys) == (2, "InvalidManifest")
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize(
    "verb, origin",
    [
        # K from the absolute origin is derived from K0's pass, which fails first
        (["map"], "checkpoint 'epoch0'"),
        (["map", "--origin", "ckpt:5"], "checkpoint 'epoch5'"),
        (["hallmarks", "--measure", "all"], "checkpoint 'epoch0'"),
        (["spectra"], "checkpoint 'epoch0'"),
    ],
    ids=["map", "map-tau", "hallmarks", "spectra"],
)
def test_non_finite_checkpoint_is_data_error(tmp_path, capsys, verb, origin, bad):
    # saved every fifth step: a manifest index is not a row position
    ckpts = []
    for i in range(5):
        vec = np.array([1.0 + i, 2.0, -1.0 * i])
        if i == 3:
            vec[1] = bad
        ckpts.append(Checkpoint(5 * i, f"epoch{5 * i}", [TensorRecord("w", Dtype.F64, (3,), vec)]))
    manifest = str(write_store(ckpts, tmp_path / "store"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*verb, "--manifest", manifest, "--out", str(tmp_path / "o")])
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (rc, err["error"]) == (2, "NonFinitePayload")
    # the Gram pass fails first, and names its origin by the checkpoint's label
    assert f" relative to {origin} is not finite" in err["detail"]
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
    "flag", [["--threads", "0"], ["--threads", "-3"], ["--mem-budget", "-1"], ["--k", "0"]]
)
@pytest.mark.parametrize("verb", [["map"], ["hallmarks", "--measure", "all"], ["spectra"]])
def test_bad_count_is_usage_error(linear_manifest, tmp_path, capsys, monkeypatch, verb, flag):
    # checked with the arguments: a missing manifest is not what fails,
    # and the store is never opened
    argv = [*verb, "--manifest", linear_manifest, *flag, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "UsageError"
    if flag[0] != "--k" or verb[0] == "hallmarks":  # only hallmarks takes --k
        assert err["detail"].startswith(f"argument {flag[0]}: must be >= ")
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
        (["train"], {"grid": []}, (1, "UsageError")),
        (["train"], {"train": {"layer_sizes": [3, 4, 2]}}, (1, "UsageError")),
        (["train"], {"train": {"eta": 1e6, "epochs": 3}}, (2, "NonFiniteLoss")),
        # one full batch: its loss is finite, the update overflows the evaluated one
        (["train"], {"train": {"eta": 1e300, "epochs": 1, "batch_size": 256}},
         (2, "NonFiniteLoss")),
        # json reads 10**400 as an int, which no float holds
        (["theory", "lemma"], {"eigenvalues": [10**400]}, (1, "UsageError")),
        # 728 TiB: no 64-bit address space maps it, so nothing is allocated
        (["theory", "lemma"], {"steps": 10**14}, (2, "OutOfMemory")),
        # more float64 values than any index reaches
        (["theory", "lemma"], {"steps": 10**19}, (1, "UsageError")),
        # a parameter file is strict JSON: no NaN or Infinity, no float past the range
        (["theory", "lemma"], '{"eta": [NaN]}', (1, "UsageError")),
        (["theory", "eos"], '{"eta_grid": [0.1, Infinity]}', (1, "UsageError")),
        (["theory", "eos"], '{"eta_grid": [1e400]}', (1, "UsageError")),
        (["theory", "width"], '{"widths": [8, 16], "eta_scale": -Infinity}', (1, "UsageError")),
        (["train"], '{"train": {"epochs": 1, "eta": NaN}}', (1, "UsageError")),
        (["train"], '{"train": {"epochs": 1, "data": {"noise_std": Infinity}}}',
         (1, "UsageError")),
        (["train"], '{"grid": [{"name": "a", "mu": 0.0, "wd": NaN}]}', (1, "UsageError")),
        # every grid entry is checked before the first one trains
        (["train"], {"train": {"epochs": 1}, "grid": [{"name": "a", "mu": 0.0, "wd": 0.0},
                                                     {"name": "b", "mu": 1.0, "wd": 0.0}]},
         (1, "UsageError")),
        (["train"], {"train": {"epochs": 1}, "grid": [{"name": "ok", "mu": 0.0, "wd": 0.0},
                                                     {"name": "a\u0000b", "mu": 0.0, "wd": 0.0}]},
         (1, "UsageError")),
        (["train"], {"train": {"epochs": 1}, "grid": [{"name": "ok", "mu": 0.0, "wd": 0.0},
                                                     {"name": "..", "mu": 0.0, "wd": 0.0}]},
         (1, "UsageError")),
        # the report lands at --out/grid.json, beside the variants' stores
        (["train"], {"train": {"epochs": 1}, "grid": [{"name": "ok", "mu": 0.0, "wd": 0.0},
                                                     {"name": "grid.json", "mu": 0.0,
                                                      "wd": 0.0}]},
         (1, "UsageError")),
    ],
    ids=["eos-missing", "width-empty", "lemma-bad-key", "grid-entry", "grid-empty",
         "train-layers", "train-diverges", "train-diverges-at-evaluation", "lemma-huge-int",
         "lemma-out-of-memory", "lemma-past-any-index", "lemma-nan", "eos-infinity", "eos-past-range",
         "width-minus-infinity", "train-nan", "data-infinity", "grid-entry-nan",
         "grid-later-entry-invalid", "grid-name-nul", "grid-name-dotdot",
         "grid-name-report"],
)
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, params, expected):
    path = tmp_path / "params.json"
    if params is not None:
        path.write_text(params if isinstance(params, str) else json.dumps(params))
    flag = "--spec" if argv == ["train"] else "--params"
    out = tmp_path / "out"
    assert run_error([*argv, flag, str(path), "--out", str(out)], capsys) == expected
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, params, detail",
    [
        (["theory", "lemma"], '{"eta": [NaN]}', "eta must be finite, got nan"),
        (["theory", "eos"], '{"eta_grid": [0.1, 1e400]}', "eta must be finite, got inf"),
        (["theory", "width"], '{"eta_scale": -Infinity}', "eta_scale must be finite, got -inf"),
        (["train"], '{"train": {"data": {"noise_std": NaN}}}', "noise_std must be finite"),
        (["train"], '{"grid": [{"name": "a", "mu": NaN, "wd": 0.0}]}', "mu must be finite"),
    ],
    ids=["lemma-eta", "eos-eta-grid", "width-eta-scale", "data-noise-std", "grid-mu"],
)
def test_non_finite_parameter_is_named_by_its_spec(tmp_path, capsys, argv, params, detail):
    path = tmp_path / "params.json"
    path.write_text(params)
    flag = "--spec" if argv == ["train"] else "--params"
    assert main([*argv, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "UsageError" and detail in error["detail"]
    assert not (tmp_path / "out").exists()


def test_indefinite_gram_is_invariant_violation(linear_manifest, tmp_path, capsys, monkeypatch):
    # eigenvalues 3 and -1: far below the clamp floor of -3e-8
    k = GramMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]), norms=np.ones(2),
                   point_labels=["a", "b"])
    monkeypatch.setattr(kernel, "gram_pair", lambda store, sel=None, *, threads=1: (k, k))
    out = tmp_path / "s"
    argv = ["spectra", "--manifest", linear_manifest, "--out", str(out)]
    assert run_error(argv, capsys) == (3, "NegativeGramEigenvalue")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("encoding", ["utf-16-le", "utf-32-be"])
def test_json_inputs_may_use_any_rfc_8259_encoding(linear_manifest, tmp_path, capsys, encoding):
    # read from bytes, whatever the locale; json tells the encodings apart
    manifest = json.loads(Path(linear_manifest).read_bytes())
    manifest["checkpoints"][0]["label"] = "\u03b80"
    path = tmp_path / "store" / "wide.json"
    path.write_bytes(json.dumps(manifest, ensure_ascii=False).encode(encoding))
    with open_store(path) as store:
        assert store.labels[0] == "\u03b80"
    params = tmp_path / "p.json"
    params.write_bytes(json.dumps({"steps": 12}).encode(encoding))
    assert main(["theory", "lemma", "--params", str(params), "--out", str(tmp_path / "l")]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"] == 6


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


_GRID = [{"name": "a", "mu": 0.9, "wd": 0.0}]


@pytest.mark.parametrize(
    "argv, params, key, setter",
    [
        (["theory", "eos"], {"eta": [0.5]}, "eta", "eta_grid"),
        (["train"], {"train": {"mu": 0.5, "epochs": 1}, "grid": _GRID}, "mu", '"grid"'),
        (["train"], {"train": {"epochs": 1, "wd": 0.5}, "grid": _GRID}, "wd", '"grid"'),
        (["theory", "width", "--seed", "3"], {"seed": 4}, "seed", "--seed"),
    ],
    ids=["eos-eta", "grid-mu", "grid-wd", "width-seed"],
)
def test_key_the_run_would_ignore_is_usage_error(tmp_path, capsys, argv, params, key, setter):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    flag = "--spec" if argv == ["train"] else "--params"
    out = tmp_path / "out"
    assert main([*argv, flag, str(path), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "UsageError"
    assert f"{key!r} is set by" in error["detail"] and setter in error["detail"]
    assert not out.exists()


def test_width_seed_comes_from_params_or_flag(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"widths": [4, 8], "seed": 4}))
    assert main(["theory", "width", "--params", str(path), "--out", str(tmp_path / "a")]) == 0
    path.write_text(json.dumps({"widths": [4, 8]}))
    argv = ["theory", "width", "--params", str(path), "--seed", "4", "--out", str(tmp_path / "b")]
    assert main(argv) == 0
    width = [(tmp_path / run / "width.json").read_bytes() for run in "ab"]
    assert width[0] == width[1]


def test_spec_data_object_overrides_only_the_keys_it_names(tmp_path, capsys, monkeypatch):
    base = trajgen.TRAIN_FIXTURE
    # a spec whose first layer is not the data dimension cannot be built
    base = dataclasses.replace(base, layer_sizes=(5, *base.layer_sizes[1:]),
                               data=dataclasses.replace(base.data, dim=5, seed=1))
    specs = []

    def train(spec, out_dir):
        specs.append(spec)
        return SimpleNamespace(losses=[], manifest_path="")

    monkeypatch.setattr(trajgen, "TRAIN_FIXTURE", base)
    monkeypatch.setattr(trajgen, "train", train)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"train": {"data": {"seed": 8}, "epochs": 2}}))
    assert main(["train", "--spec", str(path), "--out", str(tmp_path / "t")]) == 0
    want = dataclasses.replace(base, data=dataclasses.replace(base.data, seed=8), epochs=2)
    assert specs == [want]


# --- hallmarks: the Gram pass and the series stream side by side ---


def child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this trajkit."""
    path = [str(Path(ckptstore.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


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


def test_hallmarks_lag_past_the_store_allocates_nothing_for_it(tmp_path):
    # at k = 10^12 a ring sized by k would exhaust any memory; the child's
    # address space is capped, so such a ring fails fast instead
    rng = np.random.default_rng(5)
    manifest = points_store(rng.standard_normal((6, 1000)), tmp_path / "store", Dtype.F32)
    child = ("import resource, sys; from trajkit.cli import main; "
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
             "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard); "
             "resource.setrlimit(resource.RLIMIT_AS, (cap, hard)); "
             "sys.exit(main(sys.argv[1:]))")
    csv = []
    for k in ("1", "1000000000000"):
        out = tmp_path / k
        argv = ["hallmarks", "--manifest", manifest, "--measure", "param_norm", "--k", k,
                "--out", str(out)]
        done = subprocess.run([sys.executable, "-c", child, *argv], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        csv.append((out / "param_norm.csv").read_bytes())
    assert csv[0] == csv[1]


def straddling_f32_store(path, n=9) -> str:
    """A random walk in float32 with p = 12 500 > 10 000, whose tensors
    straddle the 4096-column chunks."""
    rng = np.random.default_rng(7)
    points = np.cumsum(rng.standard_normal((n, 12500)), axis=0) + rng.standard_normal(12500)
    return points_store(points, path, Dtype.F32, sizes=[3000, 5000, 4500])


@pytest.mark.parametrize("k", ["1", "2", "5"])
def test_hallmarks_outputs_identical_across_threads_and_reruns(tmp_path, k):
    # lagged_updates at k needs 2 k + 1 checkpoints
    manifest = straddling_f32_store(tmp_path / "store", n=max(9, 2 * int(k) + 1))

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
    # the series' one worker, then the Gram pass's ring of gram_slots buffers
    # (capped by the store's 4 chunks) less the calling thread; no Gram pool at one slot
    ring = min(gram_slots, 4)
    assert started == [1] * pools + [ring - 1] * (ring > 1)


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


def step_table_bits(cols: dict) -> dict:
    return {name: [None if v is None else v.hex() for v in col] for name, col in cols.items()}


@pytest.mark.parametrize("join", ["start", "mid", "never"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_shared_stream_gives_the_same_step_table(tmp_path, monkeypatch, k, join):
    # the executor's worker is free from the start, is freed at the
    # stream's fifth step as the Gram pass frees it, or stays busy
    from concurrent.futures import ThreadPoolExecutor

    from trajkit import hallmarks

    store = open_store(straddling_f32_store(tmp_path / "store"))
    want = step_table_bits(hallmarks._stream_products(store, None, k))
    flatten = TrajectoryStore.flatten
    waiting = WaitingStream(monkeypatch)
    baseline = threading.active_count()

    def joined_at(self, i, sel=None, **kwargs):
        if i == 4:  # read once, at the stream's fifth step
            release.set()
            assert waiting.joined.wait(timeout=60)
        return flatten(self, i, sel, **kwargs)

    if join == "mid":
        monkeypatch.setattr(TrajectoryStore, "flatten", joined_at)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            release = waiting.occupy(pool)
            if join == "start":
                release.set()
                assert waiting.joined.wait(timeout=60)
            try:
                got = step_table_bits(hallmarks._stream_products(store, None, k, pool))
            finally:
                release.set()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert got == want
    assert bool(waiting.helped) == (join != "never")


def test_hallmarks_worker_joins_the_stream_mid_way(tmp_path, monkeypatch):
    # the Gram pass ends only once the stream has read checkpoint 5 of 9,
    # and the stream reads on only once the Gram pass has freed the worker
    manifest = straddling_f32_store(tmp_path / "store")
    gram_pair, flatten = kernel.gram_pair, TrajectoryStore.flatten
    halfway = threading.Event()

    def slowed(store, sel=None, *, threads):
        assert halfway.wait(timeout=60)
        try:
            return gram_pair(store, sel, threads=threads)
        finally:
            waiting.joined.set()

    def read(self, i, sel=None, **kwargs):
        if i == 5:
            halfway.set()
            assert waiting.joined.wait(timeout=60)
        return flatten(self, i, sel, **kwargs)

    def outputs(threads: str) -> dict[str, bytes]:
        out = tmp_path / "out"  # summary.json names its series files
        argv = ["hallmarks", "--manifest", manifest, "--measure", "all", "--threads", threads,
                "--out", str(out)]
        assert main(argv) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        for f in out.iterdir():
            f.unlink()
        return files

    want = outputs("1")
    monkeypatch.setattr(TrajectoryStore, "flatten", read)
    monkeypatch.setattr(kernel, "gram_pair", slowed)
    waiting = WaitingStream(monkeypatch)
    for threads in ("2", "3"):
        halfway.clear()
        waiting.joined.clear()
        waiting.helped.clear()
        assert outputs(threads) == want
        assert waiting.helped


def test_hallmarks_gram_pass_fails_with_stream_jobs_queued_behind_it(
    tmp_path, monkeypatch, capsys
):
    # the Gram pass meets the NaN only once the stream's first shared batch
    # waits behind it in the worker's queue: each run reports --threads 1's
    # line, writes nothing and leaves no thread behind
    from trajkit import hallmarks

    points = np.outer(np.arange(1.0, 7.0), [1.0, 2.0, -1.0])
    points[3, 1] = np.nan
    manifest = points_store(points, tmp_path / "store")
    gram_pair, queued = kernel.gram_pair, threading.Event()

    def failing(store, sel=None, *, threads):
        assert queued.wait(timeout=60)
        try:
            return gram_pair(store, sel, threads=threads)
        finally:
            waiting.joined.set()

    monkeypatch.setattr(kernel, "gram_pair", failing)
    waiting = WaitingStream(monkeypatch)
    run_batch = hallmarks._run_batch

    def queueing(jobs, pool):
        if pool is not None and not queued.is_set() and len(jobs) > 1:
            first = jobs[0]

            def held():  # the batch's other jobs are submitted by now
                queued.set()
                assert waiting.joined.wait(timeout=60)
                first()

            jobs = [held, *jobs[1:]]
        return run_batch(jobs, pool)

    monkeypatch.setattr(hallmarks, "_run_batch", queueing)
    baseline = threading.active_count()
    lines = []
    for threads in ("1", "2", "3", "8"):
        queued.clear()
        if threads == "1":  # no worker: nothing queues
            queued.set()
        waiting.joined.clear()
        waiting.helped.clear()
        out = tmp_path / threads
        argv = ["hallmarks", "--manifest", manifest, "--measure", "all",
                "--threads", threads, "--out", str(out)]
        assert main(argv) == 2
        lines.append(capsys.readouterr().err)
        assert not out.exists()
        assert threading.active_count() == baseline
        assert bool(waiting.helped) == (threads != "1")
    assert len(set(lines)) == 1
    error = json.loads(lines[0])
    assert error["error"] == "NonFinitePayload" and "Gram entry" in error["detail"]


# Runs main on argv[2:] with the products that the calling thread runs
# slowed, so that the executor's worker takes jobs once its Gram pass is
# done; with argv[1] "raise", each product the worker runs raises instead,
# and so does every product at --threads 1, where no worker exists
SHARED_FAILURE_CHILD = """
import json, sys, threading, time
import numpy as np
from trajkit.cli import main

dot, on_worker = np.dot, []
alone = sys.argv[sys.argv.index("--threads") + 1] == "1"

def shared_dot(a, b):
    worker = threading.current_thread() is not threading.main_thread()
    if worker:
        on_worker.append(True)
    elif not alone:
        time.sleep(2e-3)
    if sys.argv[1] == "raise" and (alone or worker):
        raise OSError("a product failed")
    return dot(a, b)

np.dot = shared_dot
baseline = threading.active_count()
code = main(sys.argv[2:])
print(json.dumps([code, threading.active_count() - baseline, bool(on_worker)]))
"""


def failing_walk(case: str):
    """A random walk of 16 checkpoints; a later one repeats (a zero update),
    or one coordinate swings by 2.4e154 from step 8 (updates whose squares
    overflow while every Gram entry stays finite)."""
    rng = np.random.default_rng(23)
    points = np.cumsum(rng.standard_normal((16, 20000)), axis=0)
    if case == "degenerate":
        points[13] = points[12]
    elif case == "non_finite":
        points[8:, 0] = [1.2e154 * (-1) ** t for t in range(8, 16)]
    return points


@pytest.mark.parametrize(
    "case, mode, error",
    [("degenerate", "slow", "DegenerateVector"), ("plain", "raise", "IoError"),
     ("non_finite", "slow", "NonFinitePayload")],
)
def test_hallmarks_shared_stream_fails_as_one_thread_does(tmp_path, case, mode, error):
    # a series error met once the worker has helped, an error raised inside
    # a job the worker runs, and overflowing products that both threads
    # meet: each run reports --threads 1's line, writes nothing and leaves
    # no thread behind
    manifest = points_store(failing_walk(case), tmp_path / "store")
    runs = []
    for threads in ("1", "2", "3", "8"):
        out = tmp_path / threads
        argv = ["hallmarks", "--manifest", manifest, "--measure", "all", "--threads", threads,
                "--out", str(out)]
        done = subprocess.run([sys.executable, "-c", SHARED_FAILURE_CHILD, mode, *argv],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        code, left, helped = json.loads(done.stdout.splitlines()[-1])
        assert (code, left, helped) == (2, 0, threads != "1")
        assert not out.exists()
        assert len(done.stderr.splitlines()) == 1
        runs.append(done.stderr)
    assert len(set(runs)) == 1
    assert json.loads(runs[0])["error"] == error
    if case == "non_finite":  # u_8 . u_8 is the first of five products at step 8 to overflow
        assert json.loads(runs[0])["detail"].startswith("upd_upd at step 8 ")


def test_theory_width_overflow_is_data_error(tmp_path, capsys):
    # squares of vec(W) that overflow float64 are an error, not cos = 1
    for scale in (1e153, 1e200):
        params = tmp_path / "w.json"
        params.write_text(json.dumps({"widths": [64, 256], "init_std_scale": scale}))
        out = tmp_path / "width"
        argv = ["theory", "width", "--params", str(params), "--out", str(out)]
        assert run_error(argv, capsys) == (2, "NonFiniteIterate")
        assert not (out / "width.json").exists()


def test_map_spectra_and_train_do_not_depend_on_blas_threads(tmp_path):
    # p = 9 000 > 2 x 4096, past the length from which OpenBLAS splits one
    # dot over its threads; the series are left out, as their step products
    # are full-vector dots
    rng = np.random.default_rng(11)
    points = np.cumsum(rng.standard_normal((32, 9000)), axis=0)
    manifest = points_store(points, tmp_path / "store", Dtype.F32, sizes=[5000, 4000])
    spec = tmp_path / "spec.json"
    spec.write_text('{"train": {"epochs": 2}}', encoding="utf-8")
    runs = {
        "map": ["map", "--manifest", manifest],
        "map_tau": ["map", "--manifest", manifest, "--origin", "ckpt:3"],
        "spectra": ["spectra", "--manifest", manifest],
        "train": ["train", "--spec", str(spec)],
    }
    child = ("import json, sys; from trajkit.cli import main; "
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / blas_threads
        argvs = [[*argv, "--out", str(out / name)] for name, argv in runs.items()]
        done = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)],
                              env=child_env(OPENBLAS_NUM_THREADS=blas_threads),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        # record.json holds the run's manifest path, which names its --out
        record = json.loads((out / "train" / "record.json").read_bytes())
        files = {f.relative_to(out): f.read_bytes() for f in out.rglob("*")
                 if f.is_file() and f.name != "record.json"}
        outputs.append((files, record["losses"], record["accuracies"]))
    assert len(outputs[0][0]) == 2 + 2 + 4 + 3 + 1  # the 2-epoch store: 3 checkpoints
    assert outputs[0] == outputs[1]
