"""What each CLI process loads, and the tracing contract that lazy loading
must keep: a function wrapped in its owner module is the one every caller
reaches, whenever the caller's module was first loaded. Every exported
name has a caller outside the tests. A process's output files depend on
its inputs alone, not on its locale, hash seed or BLAS threads."""

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajkit
from trajkit import cli, hallmarks

ROOT = Path(__file__).resolve().parents[1]

# The names trajkit's eager __init__ re-exported, by owner module.
EXPORTED = {
    "ckptstore": ["ALL", "Checkpoint", "Dtype", "SelectionSpec", "TensorRecord",
                  "TrajectoryStore", "open_store", "read_checkpoint", "write_checkpoint",
                  "write_store"],
    "hallmarks": ["AngularMeasureKind", "NormMeasureKind", "ScalarSeries",
                  "angular_series", "norm_series"],
    "kernel": ["CosineMap", "GramMatrix", "compute_cosine_map", "compute_gram",
               "gram_pair", "mds", "trajectory_map"],
    "spectral": ["MatrixId", "SpectralSummary", "symmetric_eigenvalues", "trajectory_spectra"],
    "theory": ["AlignmentCurve", "LemmaBoundReport", "QuadraticSpec", "QuadraticTrace",
               "WidthSpec", "eos_angle_sweep", "lemma_bounds", "simulate_quadratic",
               "width_alignment"],
    "trajgen": ["BlobSpec", "TrainRunRecord", "TrainSpec", "hyperparameter_grid", "train"],
}

BASE = {"trajkit", "trajkit.cli", "trajkit.errors"}
ANALYSIS = BASE | {"trajkit.ckptstore", "trajkit.kernel", "trajkit.angles", "trajkit.report"}
QUADRATIC = BASE | {"trajkit.theory", "trajkit.angles"}
LOADED = {
    "--version": BASE,
    "map": ANALYSIS | {"trajkit.heatmap"},
    "hallmarks": ANALYSIS | {"trajkit.hallmarks"},
    "spectra": ANALYSIS | {"trajkit.spectral"},
    "train": BASE | {"trajkit.trajgen", "trajkit.ckptstore", "trajkit.kernel",
                     "trajkit.angles", "trajkit.rng"},
    "lemma": QUADRATIC,
    "eos": QUADRATIC,
    "width": QUADRATIC | {"trajkit.rng"},
}
# the verbs that run in Python floats and import no numpy
NUMPY_FREE = {"--version", "lemma", "eos"}

TRAIN_SPEC = {
    "train": {"layer_sizes": [2, 4, 2], "data": {"samples_per_class": 8, "dim": 2},
              "epochs": 2, "batch_size": 4},
    "grid": [{"name": "a", "mu": 0.9, "wd": 0.0}, {"name": "b", "mu": 0.0, "wd": 1e-4}],
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(trajkit.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def run_child(code: str, *args: str) -> list:
    """Runs ``code`` in a fresh interpreter; returns the JSON of its last stdout line."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def verb_argv(verb: str, tmp_path: Path, manifest: str) -> list[str]:
    out = ["--out", str(tmp_path / verb)]
    params = tmp_path / f"{verb}.json"
    if verb in ("map", "hallmarks", "spectra"):
        measure = ["--measure", "all"] if verb == "hallmarks" else []
        return [verb, "--manifest", manifest, *measure, *out]
    if verb == "train":
        params.write_text(json.dumps(TRAIN_SPEC))
        return ["train", "--spec", str(params), *out]
    if verb in ("lemma", "eos", "width"):
        params.write_text(json.dumps({"eos": {"steps": 10}, "width": {"widths": [8, 16]}}
                                     .get(verb, {})))
        return ["theory", verb, "--params", str(params), *out]
    return [verb]


@pytest.fixture
def small_manifest(tmp_path):
    ckpts = [
        trajkit.Checkpoint(i, f"e{i}", [trajkit.TensorRecord(
            "w", trajkit.Dtype.F32, (3,), [i + 1.0, 1.0, (-1.0) ** i])])
        for i in range(5)
    ]
    return str(trajkit.write_store(ckpts, tmp_path / "store"))


LOADED_BY_MAIN = """
import json, sys
from trajkit.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:  # --version
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "trajkit"),
                  "concurrent.futures" in sys.modules, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("verb", list(LOADED))
def test_each_verb_loads_only_its_modules(tmp_path, small_manifest, verb):
    # at --threads 1 no verb starts a thread pool, so none loads one
    argv = verb_argv(verb, tmp_path, small_manifest)
    code, loaded, pool_loaded, numpy_loaded = run_child(LOADED_BY_MAIN, json.dumps(argv))
    assert code == 0
    assert set(loaded) == LOADED[verb]
    assert not pool_loaded
    assert numpy_loaded == (verb not in NUMPY_FREE)


QUADRATIC_VERBS = """
import contextlib, io, json, sys
if sys.argv[2] == "without-numpy":
    sys.modules["numpy"] = None  # every import of numpy raises ImportError
from trajkit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_lemma_and_eos_run_without_numpy(tmp_path):
    # the default fixtures and a parameter file, in a child that cannot
    # import numpy and in an ordinary one
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eigenvalues": [3.0, 1.0, 0.5], "mu": 0.5,
                                  "theta_init": [1.0, -1.0, 2.0], "steps": 12}))
    out = tmp_path / "out"
    argv = [["theory", verb, *extra, "--out", str(out / f"{verb}{len(extra)}")]
            for verb in ("lemma", "eos") for extra in ([], ["--params", str(params)])]
    outputs = []
    for child in ("without-numpy", "with-numpy"):
        assert run_child(QUADRATIC_VERBS, json.dumps(argv), child) == [0] * len(argv)
        outputs.append(taken_outputs(out))
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["eos0/eos.json", "eos2/eos.json", "lemma0/lemma.json",
                                  "lemma2/lemma.json"]


@pytest.fixture
def chunked_manifest(tmp_path):
    """Six float32 checkpoints of p = 9 000, three 4096-column chunks, so
    that a Gram pass above one thread starts its pool."""
    walk = np.cumsum(np.random.default_rng(5).standard_normal((6, 9000)), axis=0)
    ckpts = [trajkit.Checkpoint(i, f"e{i}", [trajkit.TensorRecord(
        "w", trajkit.Dtype.F32, (9000,), row.astype(np.float32))]) for i, row in enumerate(walk)]
    return str(trajkit.write_store(ckpts, tmp_path / "store"))


def buffered_env() -> dict:
    """child_env() without PYTHONUNBUFFERED: a child's stdout to a pipe or
    a file is then block-buffered, and written by its last flush."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m trajkit.cli ARGV``, the path of ``cli.run``, in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "trajkit.cli", *argv], env=buffered_env(),
                          capture_output=True, text=True, timeout=120)


def tree(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def taken_outputs(out: Path) -> dict:
    """tree(out); ``out`` is removed, so the next run writes the same paths."""
    files = tree(out)
    shutil.rmtree(out)
    return files


# (verb, extra flags): both origins of map, hallmarks at one and two threads,
# a training grid and the three theory sweeps
PROCESS_RUNS = {
    "map": ("map", []),
    "map-ckpt3": ("map", ["--origin", "ckpt:3", "--threads", "2"]),
    "hallmarks-1": ("hallmarks", ["--threads", "1"]),
    "hallmarks-2": ("hallmarks", ["--threads", "2"]),
    "spectra": ("spectra", []),
    "train": ("train", []),
    "lemma": ("lemma", []),
    "eos": ("eos", []),
    "width": ("width", []),
}


@pytest.mark.parametrize("case", list(PROCESS_RUNS))
def test_a_verb_run_as_a_process_writes_what_main_writes(tmp_path, chunked_manifest, capsys,
                                                         case):
    # the process ends with os._exit once main returns: every file must be
    # closed and every pool joined by then, and stdout flushed
    verb, extra = PROCESS_RUNS[case]
    argv = [*verb_argv(verb, tmp_path, chunked_manifest), *extra]
    out = tmp_path / verb
    done = run_cli(argv)
    assert (done.returncode, done.stderr) == (0, "")
    by_process = taken_outputs(out), done.stdout
    assert cli.main(argv) == 0
    assert (taken_outputs(out), capsys.readouterr().out) == by_process
    assert len(by_process[0]) > 0 and by_process[1].count("\n") == 1


def test_a_failed_process_prints_one_json_line(tmp_path, chunked_manifest):
    usage = ["theory", "lemma"]  # no --out
    data = ["map", "--manifest", chunked_manifest, "--origin", "ckpt:9",
            "--out", str(tmp_path / "map")]
    for argv, code, error in [(usage, 1, "UsageError"), (data, 2, "OriginOutOfRange")]:
        done = run_cli(argv)
        assert (done.returncode, done.stdout) == (code, "")
        assert done.stderr.count("\n") == 1
        assert json.loads(done.stderr)["error"] == error


@pytest.mark.parametrize("verb", ["lemma", "--version"])
def test_a_closed_stdout_is_one_io_error_line(tmp_path, verb):
    # the line is written by the last flush, after the verb's files; argparse
    # ends --version with SystemExit
    argv = verb_argv(verb, tmp_path, "")
    proc = subprocess.Popen([sys.executable, "-m", "trajkit.cli", *argv], env=buffered_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader is gone before the process writes
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "IoError"
    if verb == "lemma":
        assert json.loads((tmp_path / "lemma" / "lemma.json").read_text())["all_satisfied"]


def test_package_exports_resolve_to_the_owner_modules_current_objects(monkeypatch):
    assert set(trajkit.__all__) == {n for names in EXPORTED.values() for n in names}
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"trajkit.{module}")
        for name in names:
            assert getattr(trajkit, name) is getattr(owner, name)
            assert name not in vars(trajkit)  # never cached: a later patch shows through
    patched = object()
    monkeypatch.setattr(importlib.import_module("trajkit.ckptstore"), "write_store", patched)
    assert trajkit.write_store is patched
    with pytest.raises(AttributeError):
        trajkit.no_such_name


# Exported names that no module, benchmark or demo reaches, each with its reason.
UNCALLED_EXPORTS = {
    "read_checkpoint": "the README documents it as the way to read one checkpoint file",
}


class _Uses(ast.NodeVisitor):
    """Every name a module reads, imports or takes as an attribute, except a
    definition's uses of its own name (a recursive call, an isinstance check)."""

    def __init__(self):
        self.names: set[str] = set()
        self.defining: list[str] = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str) -> None:
        if name not in self.defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._use(alias.name)


def test_every_export_has_a_caller_outside_the_tests():
    init = ROOT / "src" / "trajkit" / "__init__.py"  # its export table names every name
    uses = _Uses()
    for path in sorted(p for d in ("src", "bench", "demos") for p in (ROOT / d).rglob("*.py")):
        if path != init:
            uses.visit(ast.parse(path.read_text(), str(path)))
    assert set(UNCALLED_EXPORTS) <= set(trajkit.__all__)
    assert sorted(set(trajkit.__all__) - uses.names - set(UNCALLED_EXPORTS)) == []
    assert sorted(set(UNCALLED_EXPORTS) & uses.names) == []  # a stale entry goes


def test_no_module_imports_a_name_it_does_not_use():
    # a re-export marks its line ``noqa: F401``; ``from __future__`` binds no name
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            marked = "noqa: F401" in "".join(lines[node.lineno - 1 : node.end_lineno])
            if marked or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


# A baseline, an ASCII locale and a second BLAS thread: none may change a byte.
ENVIRONMENTS = {
    "baseline": {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"},
    "ascii": {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "1", "LC_ALL": "C",
              "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    "blas": {"OPENBLAS_NUM_THREADS": "2", "PYTHONHASHSEED": "0"},
}

# Every verb, by relative paths from the child's working directory: map at
# both origins, from the manifest write_store writes (its labels \u-escaped)
# and from the same manifest in raw UTF-8, which the other verbs read too
EVERY_VERB = {
    "map": ["map", "--manifest", "store/manifest.json"],
    "map-ckpt3": ["map", "--manifest", "store/utf8.json", "--origin", "ckpt:3", "--threads", "2"],
    "hallmarks": ["hallmarks", "--manifest", "store/utf8.json", "--measure", "all"],
    "spectra": ["spectra", "--manifest", "store/utf8.json"],
    "grid": ["train", "--spec", "grid.json"],
    "train": ["train", "--spec", "train.json"],
    "lemma": ["theory", "lemma"],
    "eos": ["theory", "eos", "--params", "eos.json"],
    "width": ["theory", "width", "--params", "width.json"],
}

EVERY_VERB_BY_MAIN = """
import json, sys, traceback
from trajkit.cli import main
codes = []
for name, argv in json.loads(sys.argv[1]).items():
    try:
        codes.append(main([*argv, "--out", "out/" + name]))
    except Exception:  # reported on stderr; the next verb still runs
        traceback.print_exc()
        codes.append(1)
print(json.dumps(codes))
"""


def test_every_output_is_a_function_of_its_inputs(tmp_path):
    # p = 9 000 over two tensors and widths 128 and 256 (vec(W) of 16 384 and
    # 65 536 values) are past the length from which OpenBLAS splits one dot
    # over its threads; the labels are not ASCII. The hallmark series CSVs
    # are left out of the BLAS comparison: their step products are
    # full-vector dots
    inputs = tmp_path / "inputs"
    walk = np.cumsum(np.random.default_rng(11).standard_normal((32, 9000)), axis=0)
    ckpts = [trajkit.Checkpoint(i, f"\u03b8{i}", [
        trajkit.TensorRecord("a", trajkit.Dtype.F32, (5000,), row[:5000].astype(np.float32)),
        trajkit.TensorRecord("b", trajkit.Dtype.F32, (4000,), row[5000:].astype(np.float32)),
    ]) for i, row in enumerate(walk)]
    manifest = trajkit.write_store(ckpts, inputs / "store")
    raw = json.dumps(json.loads(manifest.read_bytes()), ensure_ascii=False)
    (inputs / "store" / "utf8.json").write_bytes(raw.encode("utf-8"))
    for name, doc in [("grid.json", TRAIN_SPEC), ("train.json", {"train": {"epochs": 2}}),
                      ("eos.json", {"steps": 10}), ("width.json", {"widths": [128, 256]})]:
        (inputs / name).write_bytes(json.dumps(doc).encode())
    outputs = {}
    for name, extra in ENVIRONMENTS.items():
        cwd = tmp_path / name
        shutil.copytree(inputs, cwd)
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", EVERY_VERB_BY_MAIN, json.dumps(EVERY_VERB)],
            cwd=cwd, env={**child_env(), **extra}, capture_output=True, timeout=300)
        assert (done.returncode, done.stderr.decode(errors="replace")) == (0, ""), name
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(EVERY_VERB), name
        outputs[name] = done.stdout, tree(cwd / "out")
    assert {path.partition("/")[0] for path in outputs["baseline"][1]} == set(EVERY_VERB)
    assert outputs["ascii"] == outputs["baseline"]
    series = {path for path in outputs["baseline"][1]
              if path.startswith("hallmarks/") and path.endswith(".csv")}
    assert len(series) == len(cli.ALL_MEASURES)
    stdout, files = outputs["blas"]
    assert stdout == outputs["baseline"][0]
    assert {p: b for p, b in files.items() if p not in series} == {
        p: b for p, b in outputs["baseline"][1].items() if p not in series}


def test_top_level_help_is_for_users(capsys):
    # the module docstring is for readers of the code
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    helptext = capsys.readouterr().out
    assert "``" not in helptext and "os._exit" not in helptext
    assert all(verb in helptext for verb in ("map", "hallmarks", "spectra", "theory", "train"))


def test_all_measures_are_the_hallmark_kinds(capsys):
    assert cli.ALL_MEASURES == [m.value for m in hallmarks.AngularMeasureKind] + [
        m.value for m in hallmarks.NormMeasureKind
    ]
    with pytest.raises(SystemExit):
        cli.main(["hallmarks", "--help"])
    helptext = " ".join(capsys.readouterr().out.split())
    assert all(name in helptext for name in cli.ALL_MEASURES)


TWO_TRACED_ROUNDS = """
import collections, contextlib, importlib, importlib.util, io, json, sys
from pathlib import Path

tracing_spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = sys.modules["tracing"] = importlib.util.module_from_spec(tracing_spec)
tracing_spec.loader.exec_module(tracing)  # its dataclasses look their module up
import trajkit  # the package alone: each module is first loaded while wrapping

work = Path(sys.argv[2])
runs = json.loads(sys.argv[3])
rounds = []
for _ in range(2):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        ckpts = [
            trajkit.Checkpoint(i, f"e{i}", [trajkit.TensorRecord(
                "w", trajkit.Dtype.F32, (5000,), [(i + 1.0) * (j % 7 - 3) for j in range(5000)])])
            for i in range(6)
        ]
        trajkit.write_store(ckpts, work / "store")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                assert importlib.import_module("trajkit.cli").main(argv) == 0, argv
    finally:
        tracing.uninstall(undo)
    assert not tracing.missing_spans(tracer.spans), tracing.missing_spans(tracer.spans)
    rounds.append(collections.Counter(s.name for s in tracer.spans))
print(json.dumps(rounds))
"""


def test_two_traced_rounds_count_the_same_spans(tmp_path):
    manifest = str(tmp_path / "store" / "manifest.json")
    runs = [verb_argv(v, tmp_path, manifest) for v in ("map", "hallmarks", "spectra")]
    runs[0][1:1] = ["--threads", "2"]
    runs += [verb_argv(v, tmp_path, manifest) for v in ("train", "lemma", "eos", "width")]
    first, second = run_child(TWO_TRACED_ROUNDS, str(ROOT / "bench" / "tracing.py"),
                              str(tmp_path), json.dumps(runs))
    assert first == second
