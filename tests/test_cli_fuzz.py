"""Fuzzing of the command line.

Each example runs ``cli.main`` on an argv built from the real verbs and
flags in random order, with values that are valid, out of range or not
numbers at all, sometimes without a required flag and sometimes with a
stray token inserted. Manifests point at a small valid store, a missing
file, a directory or a file that is not JSON. Whatever the argv, a run
exits 0, 1, 2 or 3, writes at most one line to stderr, that line is
JSON, and no exception or warning escapes. ``theory width`` and
``train`` always end with a small (or broken) parameter file, so that
no example runs the full-size fixture.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trajkit import Checkpoint, Dtype, TensorRecord, write_store
from trajkit.cli import ALL_MEASURES, main

# placeholders, replaced by paths in the example's directory; valid ones
# are drawn more often, so that most runs get past the arguments
PATHS = ("@store",) * 4 + ("@missing", "@dir", "@garbage")
OUTS = ("@out",) * 4 + ("@garbage", "sub/out")


def ints(lo=-3, hi=9):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["x", "", "1.5", "1e3"]))


floats = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "x"]),
)
globs = st.one_of(st.sampled_from(["**", "layer.*", "head", "layer.?", "*", "[", "zzz"]),
                  st.text(max_size=4))
store_flags = {
    "--manifest": st.sampled_from(PATHS),
    "--select": globs,
    "--exclude": globs,
    "--threads": ints(-3, 64),  # a small store is one chunk: no pool is started
    "--mem-budget": st.one_of(ints(-3, 4096), st.just(str(2**70))),
    "--out": st.sampled_from(OUTS),
}
VERBS = {
    ("map",): {
        **store_flags,
        "--origin": st.one_of(st.just("absolute"), ints(-2, 6).map("ckpt:{}".format),
                              st.text(max_size=5)),
        "--vmin": floats,
        "--vmax": floats,
    },
    ("hallmarks",): {
        **store_flags,
        "--measure": st.one_of(st.sampled_from([*ALL_MEASURES, "all"]), st.text(max_size=5)),
        "--k": ints(-1, 6),
    },
    ("spectra",): store_flags,
    ("theory", "lemma"): {"--params": st.sampled_from(PATHS), "--out": st.sampled_from(OUTS)},
    ("theory", "eos"): {"--params": st.sampled_from(PATHS), "--out": st.sampled_from(OUTS)},
    ("theory", "width"): {"--seed": st.one_of(ints(), st.just(str(2**70))),
                          "--out": st.sampled_from(OUTS)},
    ("train",): {"--out": st.sampled_from(OUTS)},
}
# the small files that stand in for the full-size fixtures
LAST = {("theory", "width"): "--params", ("train",): "--spec"}
SMALL = {
    "--params": {"widths": [4, 8], "steps": 1},
    "--spec": {"train": {"epochs": 1, "layer_sizes": [2, 3, 2], "batch_size": 4,
                         "data": {"samples_per_class": 4, "dim": 2}}},
}
stray = st.one_of(st.text(max_size=6), st.sampled_from(["-", "--", "--help", "--version", "-x"]))


@st.composite
def argvs(draw):
    head = draw(st.sampled_from(sorted(VERBS)))
    flags = VERBS[head]
    usual = ("--manifest", "--out", "--measure")  # required, or no run gets far without it
    names = [name for name in usual if name in flags and draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(sorted(flags)), max_size=5))
    pairs = draw(st.permutations([[name, draw(flags[name])] for name in names]))
    tokens = [*head, *(token for pair in pairs for token in pair)]
    for _ in range(draw(st.integers(0, 2) if draw(st.integers(0, 3)) == 0 else st.just(0))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(stray))
    if head in LAST:
        tokens += [LAST[head], draw(st.sampled_from(["@small", "@missing", "@garbage"]))]
    return tokens


def _fill(tmp: Path, token: str, last_flag: str) -> str:
    if token == "@store":
        rng = np.random.default_rng(3)
        ckpts = [
            Checkpoint(i, f"e{i}", [
                TensorRecord("layer.w", Dtype.F32, (2, 3), rng.standard_normal(6)),
                TensorRecord("layer.b", Dtype.F16, (3,), rng.standard_normal(3)),
                TensorRecord("head", Dtype.F64, (2,), rng.standard_normal(2)),
            ])
            for i in range(5)
        ]
        return str(write_store(ckpts, tmp / "store"))
    if token == "@small":
        path = tmp / "small.json"
        path.write_text(json.dumps(SMALL[last_flag]))
        return str(path)
    if token == "@garbage":
        path = tmp / "garbage"
        path.write_text("not json {")
        return str(path)
    if token == "@dir":
        (tmp / "dir").mkdir(exist_ok=True)
        return str(tmp / "dir")
    if token in ("@missing", "@out"):
        return str(tmp / token[1:])
    return token


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_argv_fails_cleanly(argv):
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [_fill(Path(tmp), t, prev) for prev, t in zip(["", *argv], argv)]
        os.chdir(tmp)  # a relative --out lands in the example's directory
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    rc = main(argv)
                except SystemExit as exc:  # --help and --version, as argparse ends them
                    rc = exc.code
        finally:
            os.chdir(cwd)
    err = stderr.getvalue().splitlines()
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 1, 2, 3)
    # a warning would be one more stderr line from a CLI process
    assert [str(w.message) for w in caught] == []
    assert len(err) <= 1
    if err:
        assert set(json.loads(err[0])) == {"error", "detail"}
    assert (rc == 0) == (not err)
