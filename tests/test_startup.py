"""What each CLI process loads, and the tracing contract that lazy loading
must keep: a function wrapped in its owner module is the one every caller
reaches, whenever the caller's module was first loaded. Every exported
name has a caller outside the tests."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
                  "angular_series", "mds", "norm_series"],
    "kernel": ["CosineMap", "GramMatrix", "compute_cosine_map", "compute_gram",
               "gram_pair", "trajectory_map"],
    "spectral": ["MatrixId", "SpectralSummary", "symmetric_eigenvalues", "trajectory_spectra"],
    "theory": ["AlignmentCurve", "LemmaBoundReport", "QuadraticSpec", "QuadraticTrace",
               "WidthSpec", "eos_angle_sweep", "lemma_bounds", "simulate_quadratic",
               "width_alignment"],
    "trajgen": ["BlobSpec", "TrainRunRecord", "TrainSpec", "hyperparameter_grid", "train"],
}

BASE = {"trajkit", "trajkit.cli", "trajkit.errors"}
ANALYSIS = BASE | {"trajkit.ckptstore", "trajkit.kernel", "trajkit.angles", "trajkit.report"}
THEORY = BASE | {"trajkit.theory", "trajkit.angles", "trajkit.rng", "trajkit.report"}
LOADED = {
    "--version": BASE,
    "map": ANALYSIS | {"trajkit.heatmap"},
    "hallmarks": ANALYSIS | {"trajkit.hallmarks"},
    "spectra": ANALYSIS | {"trajkit.spectral"},
    "train": BASE | {"trajkit.trajgen", "trajkit.ckptstore", "trajkit.kernel",
                     "trajkit.angles", "trajkit.hallmarks", "trajkit.rng"},
    "lemma": THEORY,
    "eos": THEORY,
    "width": THEORY,
}

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
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "trajkit")]))
"""


@pytest.mark.parametrize("verb", list(LOADED))
def test_each_verb_loads_only_its_modules(tmp_path, small_manifest, verb):
    argv = verb_argv(verb, tmp_path, small_manifest)
    code, loaded = run_child(LOADED_BY_MAIN, json.dumps(argv))
    assert code == 0
    assert set(loaded) == LOADED[verb]


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
