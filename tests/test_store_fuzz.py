"""Fuzzing of trajectory manifests and checkpoint bytes.

A small valid store is damaged in one way per example: a checkpoint file
or the manifest is truncated, one of its bits is flipped, or the manifest
is replaced by arbitrary JSON. ``map``, ``hallmarks`` and ``spectra``
then run on it through ``cli.main``, with the Gram pass on the calling
thread alone or with a worker (``--threads 2``). Whatever the damage, a
run exits 0, 1, 2 or 3, writes
at most one line to stderr, that line is JSON, and no exception or
warning escapes.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trajkit import Checkpoint, Dtype, TensorRecord, write_store
from trajkit.cli import main

N_POINTS = 4


def _store_files(tmp: Path) -> list[Path]:
    """A valid 4-checkpoint store in ``tmp``: [manifest, checkpoint files...]."""
    rng = np.random.default_rng(7)
    ckpts = [
        Checkpoint(i, f"e{i}", [
            TensorRecord("layer.w", Dtype.F32, (2, 3), rng.standard_normal(6)),
            TensorRecord("layer.b", Dtype.F16, (3,), rng.standard_normal(3)),
            TensorRecord("head", Dtype.F64, (2,), rng.standard_normal(2)),
        ])
        for i in range(N_POINTS)
    ]
    manifest = write_store(ckpts, tmp)
    return [manifest, *sorted(tmp.glob("*.trajckpt"))]


json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 2**64), st.floats(allow_nan=False),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
entry_value = st.one_of(
    st.integers(-1, N_POINTS),
    st.sampled_from(["", ".", "..", "missing", "manifest.json", "ckpt_000001.trajckpt", "a\0b"]),
    json_value,
)
# (what to do, file number with 0 the manifest, where as a fraction of the
# file size, bit) for bytes; (what to do, argument) for the manifest document
damage = st.one_of(
    st.tuples(st.sampled_from(["truncate", "flip"]), st.integers(0, N_POINTS),
              st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
    # manifest entries by position: dropped, repeated or reordered
    st.tuples(st.just("entries"), st.lists(st.integers(0, N_POINTS - 1), max_size=6)),
    st.tuples(st.just("edit"), st.tuples(
        st.integers(0, N_POINTS - 1), st.sampled_from(["index", "path", "label", "bogus"]),
        entry_value)),
    st.tuples(st.just("top"), st.tuples(
        st.sampled_from(["version", "checkpoints", "bogus"]), json_value)),
    st.tuples(st.just("replace"), json_value),
)
runs = st.tuples(
    st.sampled_from([["map"], ["hallmarks", "--measure", "all"], ["spectra"]]),
    st.sampled_from([["--threads", "2"], []]),
)


def _damage(files: list[Path], case) -> None:
    kind, *args = case
    if kind in ("truncate", "flip"):
        which, where, bit = args
        raw = bytearray(files[which].read_bytes())
        pos = int(where * len(raw))
        if kind == "truncate":
            del raw[pos:]
        else:
            raw[pos] ^= 1 << bit
        files[which].write_bytes(bytes(raw))
        return
    (arg,) = args
    document = json.loads(files[0].read_text())
    entries = document["checkpoints"]
    if kind == "entries":
        document["checkpoints"] = [dict(entries[i]) for i in arg]
    elif kind == "edit":
        pos, key, value = arg
        entries[pos][key] = value
    elif kind == "top":
        key, value = arg
        document[key] = value
    else:
        document = arg
    files[0].write_text(json.dumps(document))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(damage, runs)
def test_damaged_stores_fail_cleanly(case, run):
    verb, path_flags = run
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = _store_files(Path(tmp) / "store")
        _damage(files, case)
        argv = [*verb, "--manifest", str(files[0]), *path_flags, "--out", str(Path(tmp) / "out")]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main(argv)
    err = stderr.getvalue().splitlines()
    event(f"{case[0]}: exit {rc} {json.loads(err[0])['error'] if err else ''}")
    assert rc in (0, 1, 2, 3)
    # a warning would be one more stderr line from a CLI process
    assert [str(w.message) for w in caught] == []
    assert len(err) <= 1
    if err:
        assert set(json.loads(err[0])) == {"error", "detail"}
    assert (rc == 0) == (not err)
