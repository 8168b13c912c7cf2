import builtins
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_f16
from trajkit import (
    Checkpoint,
    Dtype,
    SelectionSpec,
    TensorRecord,
    TrajectoryStore,
    open_store,
    read_checkpoint,
    write_checkpoint,
    write_store,
)
from trajkit.errors import (
    BadMagic,
    DuplicateIndex,
    EmptySelection,
    EmptyTrajectory,
    InvalidCheckpoint,
    InvalidManifest,
    InvalidTensor,
    LayoutMismatch,
    TruncatedFile,
    UnsupportedVersion,
)

import trajkit
from trajkit import ckptstore
from trajkit.cli import main
from trajkit.kernel import compute_gram
from conftest import in_memory_store, mixed_dtype_store, random_checkpoint


def simple_ckpt():
    return Checkpoint(
        index=0,
        label="init",
        tensors=[TensorRecord("w", Dtype.F64, (2,), np.array([1.0, 2.0]))],
    )


def test_round_trip_single_tensor(tmp_path):
    path = tmp_path / "c.trajckpt"
    write_checkpoint(simple_ckpt(), path)
    raw = path.read_bytes()
    assert raw[:8] == b"TRAJCKPT"
    assert raw[-16:] == np.array([1.0, 2.0]).tobytes()
    got = read_checkpoint(path)
    assert got.tensors == simple_ckpt().tensors


def test_zero_tensors_rejected(tmp_path):
    with pytest.raises(InvalidCheckpoint):
        write_checkpoint(Checkpoint(index=0, label="", tensors=[]), tmp_path / "x")


def test_identical_content_identical_bytes(tmp_path):
    write_checkpoint(simple_ckpt(), tmp_path / "a")
    write_checkpoint(simple_ckpt(), tmp_path / "b")
    ha = hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest()
    hb = hashlib.sha256((tmp_path / "b").read_bytes()).hexdigest()
    assert ha == hb


def test_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        read_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9"
    write_checkpoint(simple_ckpt(), path)
    raw = bytearray(path.read_bytes())
    raw[8] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion):
        read_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t"
    write_checkpoint(simple_ckpt(), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedFile):
        read_checkpoint(path)


def test_length_mismatch_rejected():
    with pytest.raises(InvalidTensor):
        TensorRecord("w", Dtype.F64, (3,), np.array([1.0, 2.0]))


# fields the header's u16 name length, u8 rank and u64 dims cannot hold
UNWRITABLE = {
    "name-over-65535-bytes": lambda: TensorRecord("\u00e9" * 32768, Dtype.F64, (1,), [1.0]),
    "name-without-utf-8": lambda: TensorRecord("\ud800", Dtype.F64, (1,), [1.0]),
    "rank-over-255": lambda: TensorRecord("x", Dtype.F64, (1,) * 256, [1.0]),
    "dim-of-2^64": lambda: TensorRecord("x", Dtype.F64, (0, 1 << 64), []),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_fields_are_invalid_tensors(tmp_path, case):
    make = UNWRITABLE[case]
    with pytest.raises(InvalidTensor):
        make()
    with pytest.raises(InvalidTensor):
        write_checkpoint(Checkpoint(0, "e0", [make()]), tmp_path / "c0")
    with pytest.raises(InvalidTensor):
        write_store([Checkpoint(0, "e0", [make()])], tmp_path / "store")
    assert list(tmp_path.iterdir()) == []


def test_largest_header_fields_round_trip(tmp_path):
    ckpt = Checkpoint(0, "e0", [
        TensorRecord("\u00e9" * 32767 + "x", Dtype.F64, (1,) * 255, [2.0]),  # 65535 bytes
        TensorRecord("z", Dtype.F32, (0, (1 << 64) - 1), []),
    ])
    write_checkpoint(ckpt, tmp_path / "c0")
    assert read_checkpoint(tmp_path / "c0").tensors == ckpt.tensors


def test_f16_upconverts_exactly(tmp_path):
    values = np.array([1.0, -2.5], dtype=np.float16)
    ckpt = Checkpoint(0, "h", [TensorRecord("h", Dtype.F16, (2,), values)])
    path = tmp_path / "h.trajckpt"
    write_checkpoint(ckpt, path)
    got = read_checkpoint(path)
    assert got.tensors[0].data.dtype == np.float16
    store = TrajectoryStore.from_checkpoints([got])
    flat = store.flatten(0)
    expected = [decode_f16(int(b)) for b in values.view(np.uint16)]
    assert flat.dtype == np.float64
    assert list(flat) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    ckpt = random_checkpoint(rng)
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/c.trajckpt"
        write_checkpoint(ckpt, path)
        got = read_checkpoint(path, index=ckpt.index, label=ckpt.label)
    assert got.index == ckpt.index and got.label == ckpt.label
    assert got.tensors == ckpt.tensors


def layout_bytes(tensors) -> bytes:
    """The module docstring's binary layout, assembled by hand from
    (name, dtype code, dims, payload bytes) per tensor."""
    out = b"TRAJCKPT" + struct.pack("<II", 1, len(tensors))
    for name, code, dims, payload in tensors:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<BB", code, len(dims))
        out += b"".join(struct.pack("<Q", d) for d in dims) + payload
    return out


def test_written_bytes_follow_the_documented_layout(tmp_path):
    tensors, expected = [], []
    for dtype, fmt in ((Dtype.F32, "f"), (Dtype.F64, "d"), (Dtype.F16, "e")):
        for dims in ((), (3,), (2, 3)):
            name = f"schicht.{dtype.name}.{len(dims)}.gewicht\u00e4\u20ac"
            values = [0.5 * (k + 1) * (-1) ** k for k in range(int(np.prod(dims)))]
            tensors.append(TensorRecord(name, dtype, dims, np.array(values)))
            payload = struct.pack(f"<{len(values)}{fmt}", *values)
            expected.append((name, int(dtype), dims, payload))
    path = tmp_path / "c.trajckpt"
    write_checkpoint(Checkpoint(0, "c", tensors), path)
    assert path.read_bytes() == layout_bytes(expected)
    assert read_checkpoint(path).tensors == tensors


# --- store / manifest ---


def two_tensor_ckpt(index, a_vals, b_vals):
    return Checkpoint(
        index=index,
        label=f"e{index}",
        tensors=[
            TensorRecord("a", Dtype.F64, (2,), np.asarray(a_vals, dtype=np.float64)),
            TensorRecord("b", Dtype.F64, (2, 2), np.asarray(b_vals, dtype=np.float64).ravel()),
        ],
    )


def test_open_store_happy_path(tmp_path):
    ckpts = [two_tensor_ckpt(i, [i, i], np.full((2, 2), i)) for i in range(3)]
    manifest = write_store(ckpts, tmp_path)
    store = open_store(manifest)
    assert store.n_points == 3
    assert store.dim_p == 6


def test_layout_mismatch_names_offender(tmp_path):
    ok = two_tensor_ckpt(0, [0, 0], np.zeros((2, 2)))
    bad = Checkpoint(1, "e1", [ok.tensors[0]])
    write_checkpoint(ok, tmp_path / "c0")
    write_checkpoint(bad, tmp_path / "c1")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "version": 1,
                "checkpoints": [
                    {"index": 0, "label": "e0", "path": "c0"},
                    {"index": 1, "label": "e1", "path": "c1"},
                ],
            }
        )
    )
    with pytest.raises(LayoutMismatch) as exc:
        open_store(manifest)
    assert "e1" in str(exc.value) and "b" in str(exc.value)


def test_manifest_order_wins_over_indices(tmp_path):
    ckpts = {i: two_tensor_ckpt(i, [i, i], np.full((2, 2), i)) for i in range(3)}
    for i, c in ckpts.items():
        write_checkpoint(c, tmp_path / f"c{i}")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "version": 1,
                "checkpoints": [
                    {"index": i, "label": f"e{i}", "path": f"c{i}"} for i in (0, 2, 1)
                ],
            }
        )
    )
    store = open_store(manifest)
    assert store.indices == [0, 2, 1]
    assert [store.flatten(i)[0] for i in range(3)] == [0.0, 2.0, 1.0]


def test_duplicate_index_rejected(tmp_path):
    c = two_tensor_ckpt(0, [0, 0], np.zeros((2, 2)))
    write_checkpoint(c, tmp_path / "c0")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "version": 1,
                "checkpoints": [
                    {"index": 0, "label": "a", "path": "c0"},
                    {"index": 0, "label": "b", "path": "c0"},
                ],
            }
        )
    )
    with pytest.raises(DuplicateIndex):
        open_store(manifest)


@pytest.mark.parametrize(
    "entry",
    [{"label": "a", "path": "c0"}, {"index": "0", "path": "c0"}, {"index": 0.5, "path": "c0"},
     {"index": 0}, "c0", {"index": 0, "path": "c\0"}],
)
def test_malformed_manifest_entry_is_typed(tmp_path, entry):
    write_checkpoint(two_tensor_ckpt(0, [0, 0], np.zeros((2, 2))), tmp_path / "c0")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "checkpoints": [entry]}))
    with pytest.raises(InvalidManifest):
        open_store(manifest)


@pytest.mark.parametrize("text", ['{"version": 1, "checkpoints": [', "[1, 2]", '{"version": 1}'])
def test_malformed_manifest_document_is_typed(tmp_path, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    with pytest.raises(InvalidManifest):
        open_store(manifest)


def chunk(store, start, stop):
    """Columns [start, stop) of the whole store, read into a new buffer."""
    return store.chunk_matrix(None, start, stop, out=np.empty((store.n_points, stop - start)))


def test_file_shrunk_after_open_is_truncated(tmp_path):
    ckpts = [two_tensor_ckpt(i, [i, i], np.full((2, 2), i)) for i in range(2)]
    manifest = write_store(ckpts, tmp_path)
    lazy = open_store(manifest)
    path = tmp_path / "ckpt_000001.trajckpt"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TruncatedFile):
        lazy.flatten(1)
    with pytest.raises(TruncatedFile):
        chunk(lazy, 0, 6)


class _CountingFile:
    """A file whose read() calls add the bytes they return to ``counts``."""

    def __init__(self, f, counts):
        self._f = f
        self._counts = counts

    def read(self, n=-1):
        data = self._f.read(n)
        self._counts.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def test_lazy_open_reads_headers_only(tmp_path, monkeypatch):
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord("layer.w", Dtype.F32, (50, 100), np.full(5000, i)),
            TensorRecord("layer.b", Dtype.F64, (100,), np.full(100, i)),
        ])
        for i in range(3)
    ]
    manifest = write_store(ckpts, tmp_path)
    counts = []
    monkeypatch.setattr(
        ckptstore, "open", lambda path, mode: _CountingFile(builtins.open(path, mode), counts),
        raising=False,
    )

    def no_whole_file_reads(self):
        raise AssertionError(f"read_bytes({self})")

    monkeypatch.setattr(Path, "read_bytes", no_whole_file_reads)
    lazy = open_store(manifest)
    assert not lazy.is_cached
    # magic + version/count, then per tensor name length, name, dtype/rank, dims
    header = 16 + (2 + 7 + 2 + 16) + (2 + 7 + 2 + 8)
    assert sum(counts) == 3 * header
    monkeypatch.undo()
    np.testing.assert_array_equal(lazy.flatten(2)[:5000], np.full(5000, 2.0))


def test_lazy_open_of_short_payload_is_truncated(tmp_path):
    ckpts = [two_tensor_ckpt(i, [i, i], np.full((2, 2), i)) for i in range(2)]
    manifest = write_store(ckpts, tmp_path)
    path = tmp_path / "ckpt_000001.trajckpt"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedFile):
        open_store(manifest)
    with pytest.raises(TruncatedFile):
        read_checkpoint(path)


F64_ONE = struct.pack("<d", 1.0)
# checkpoints that write_checkpoint refuses to write, with the error each raises on read
BAD_NAMES = {
    "empty-name": ([("", 1, (1,), F64_ONE)], InvalidTensor),
    "repeated-name": ([("w", 1, (1,), F64_ONE), ("b", 1, (1,), F64_ONE), ("w", 1, (1,), F64_ONE)],
                      InvalidCheckpoint),
}


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
def test_both_readers_reject_bad_tensor_names(tmp_path, capsys, case):
    tensors, error = BAD_NAMES[case]
    (tmp_path / "c0").write_bytes(layout_bytes(tensors))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"version": 1, "checkpoints": [{"index": 0, "label": "e0", "path": "c0"}]}))
    with pytest.raises(error):
        read_checkpoint(tmp_path / "c0")
    with pytest.raises(error):
        open_store(manifest)
    assert main(["map", "--manifest", str(manifest), "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == error.__name__


@pytest.mark.parametrize("case", ["repeated-index", "empty", "layout-mismatch"])
def test_write_store_refuses_a_store_open_store_would_reject(tmp_path, case):
    a = two_tensor_ckpt(0, [0, 0], np.zeros((2, 2)))
    ckpts, error = {
        "repeated-index": ([a, two_tensor_ckpt(0, [1, 1], np.ones((2, 2)))], DuplicateIndex),
        "empty": ([], EmptyTrajectory),
        "layout-mismatch": ([a, Checkpoint(1, "e1", [a.tensors[0]])], LayoutMismatch),
    }[case]
    out = tmp_path / "store"
    with pytest.raises(error):
        write_store(ckpts, out)
    assert not out.exists()


# --- flatten / selection ---


def flatten_fixture():
    ckpt = two_tensor_ckpt(0, [1, 2], [[3, 4], [5, 6]])
    return TrajectoryStore.from_checkpoints([ckpt])


def test_flatten_all_in_layout_order():
    assert list(flatten_fixture().flatten(0)) == [1, 2, 3, 4, 5, 6]


def test_flatten_glob_select():
    sel = SelectionSpec(include_globs=("b*",))
    assert list(flatten_fixture().flatten(0, sel)) == [3, 4, 5, 6]


def test_exclude_everything_is_error():
    sel = SelectionSpec(include_globs=("**",), exclude_globs=("**",))
    with pytest.raises(EmptySelection):
        flatten_fixture().flatten(0, sel)


def test_glob_dot_semantics():
    sel = SelectionSpec(include_globs=("layers.*.weight",))
    assert sel.matches("layers.0.weight")
    assert not sel.matches("layers.0.extra.weight")
    assert SelectionSpec(include_globs=("layers.**",)).matches("layers.0.extra.weight")
    assert SelectionSpec(include_globs=("t?",)).matches("t1")


def test_flatten_length_matches_dim_p(rng):
    ckpts = [random_checkpoint(rng, index=i) for i in range(1)]
    store = TrajectoryStore.from_checkpoints(ckpts)
    assert store.flatten(0).shape[0] == store.dim_p


def test_lazy_store_matches_cached(tmp_path, rng):
    ckpts = []
    for i in range(3):
        c = random_checkpoint(rng, index=i)
        if i == 0:
            layout_tensors = c.tensors
        else:
            c = Checkpoint(
                i,
                f"ckpt{i}",
                [
                    TensorRecord(
                        t.name,
                        t.dtype,
                        t.dims,
                        rng.standard_normal(max(t.n_elements, 1))[: t.n_elements].astype(
                            t.dtype.np_dtype
                        ),
                    )
                    for t in layout_tensors
                ],
            )
        ckpts.append(c)
    cached = TrajectoryStore.from_checkpoints(ckpts)
    with open_store(write_store(ckpts, tmp_path)) as lazy:
        assert cached.is_cached and not lazy.is_cached
        for i in range(3):
            np.testing.assert_array_equal(cached.flatten(i), lazy.flatten(i))
        np.testing.assert_array_equal(cached.matrix()[:, 1:3], chunk(lazy, 1, 3))


# --- lazy reads through held descriptors ---


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd"
)


@needs_proc_fd
@pytest.mark.parametrize("case", ["bad-magic", "truncated", "repeated-name"])
def test_failed_read_checkpoint_releases_its_descriptor(tmp_path, case):
    path = tmp_path / "c"
    good = layout_bytes([("w", 1, (2,), F64_ONE * 2)])
    path.write_bytes({
        "bad-magic": b"NOTACKPT" + good[8:],
        "truncated": good[:-3],
        "repeated-name": layout_bytes(BAD_NAMES["repeated-name"][0]),
    }[case])
    baseline = os.listdir("/proc/self/fd")
    with pytest.raises((BadMagic, TruncatedFile, InvalidCheckpoint)):
        read_checkpoint(path)
    assert os.listdir("/proc/self/fd") == baseline


@needs_proc_fd
def test_lazy_store_holds_one_descriptor_per_checkpoint_until_closed(tmp_path):
    ckpts = [two_tensor_ckpt(i, [i, 1], np.full((2, 2), i)) for i in range(5)]
    manifest = write_store(ckpts, tmp_path)
    baseline = open_fds()
    with open_store(manifest) as lazy:
        assert open_fds() == baseline + 5
        expected = lazy.matrix()
    assert open_fds() == baseline
    # a closed store still reads, opening each checkpoint per read
    np.testing.assert_array_equal(chunk(lazy, 1, 5), expected[:, 1:5])
    assert open_fds() == baseline
    lazy.close()
    again = open_store(manifest)
    del again  # the finalizer releases a store that was never closed
    assert open_fds() == baseline


@needs_proc_fd
def test_failed_open_releases_descriptors(tmp_path):
    ckpts = [two_tensor_ckpt(i, [i, 1], np.full((2, 2), i)) for i in range(4)]
    manifest = write_store(ckpts, tmp_path)
    (tmp_path / "ckpt_000002.trajckpt").write_bytes(b"NOTACKPT" + bytes(40))
    baseline = open_fds()
    with pytest.raises(BadMagic):
        open_store(manifest)
    assert open_fds() == baseline


def test_lazy_chunks_straddling_mixed_dtype_tensors_match_cached(tmp_path):
    manifest = mixed_dtype_store(tmp_path)
    cached = in_memory_store(manifest)
    with open_store(manifest) as lazy:
        p = lazy.dim_p
        for start, stop in [(0, p), (0, 4096), (4096, 8192), (8192, p), (2999, 3001),
                            (7999, 8001), (p - 10, p), (3000, 3000)]:
            np.testing.assert_array_equal(chunk(lazy, start, stop), chunk(cached, start, stop))
        sel = SelectionSpec(include_globs=("a", "c", "f"))
        for i in range(lazy.n_points):
            np.testing.assert_array_equal(lazy.flatten(i, sel), cached.flatten(i, sel))
        expected = compute_gram(cached, None).values
        for threads in (1, 2, 3):
            got = compute_gram(lazy, None, threads=threads).values
            assert np.array_equal(got, expected)


def test_lazy_flatten_blocks_straddling_mixed_dtype_tensors_match_cached(tmp_path):
    # 65 536-column flatten blocks whose edges fall inside the f16 and f32 tensors
    rng = np.random.default_rng(11)
    shapes = [("a", Dtype.F16, (70000,)), ("b", Dtype.F32, (60000, 1)), ("c", Dtype.F64, (10,))]
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord(name, dtype, dims, rng.standard_normal(int(np.prod(dims))))
            for name, dtype, dims in shapes
        ])
        for i in range(3)
    ]
    cached = TrajectoryStore.from_checkpoints(ckpts)
    with open_store(write_store(ckpts, tmp_path)) as lazy:
        for sel in (None, SelectionSpec(include_globs=("b", "c"))):
            for i in range(3):
                assert lazy.flatten(i, sel).tobytes() == cached.flatten(i, sel).tobytes()


def test_lazy_flatten_stages_a_bounded_block(tmp_path):
    p = 10 * 65536
    ckpts = [Checkpoint(i, f"c{i}", [TensorRecord("w", Dtype.F32, (p,), np.full(p, i + 0.5))])
             for i in range(2)]
    with open_store(write_store(ckpts, tmp_path)) as lazy:
        buf = np.empty(p)
        lazy.flatten(0, out=buf)  # first-use allocations are not the read's
        tracemalloc.start()
        try:
            lazy.flatten(1, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (buf == 1.5).all()
    # a whole row of f32 staging would be 2.6 MB
    assert peak < 1 << 20


def test_store_past_the_descriptor_limit_reads_per_checkpoint(tmp_path):
    n = 40
    ckpts = [
        Checkpoint(i, f"e{i}", [TensorRecord("w", Dtype.F32, (3,), [i + 1.0, 1.0, (-1.0) ** i])])
        for i in range(n)
    ]
    manifest = str(write_store(ckpts, tmp_path / "store"))
    assert main(["map", "--manifest", manifest, "--out", str(tmp_path / "held")]) == 0
    lazy_out = str(tmp_path / "lazy")
    # the lowered limit holds in the child process only
    child = f"""
import resource
from trajkit import open_store
from trajkit.cli import main
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))
with open_store({manifest!r}) as store:
    print(sum(src.fd is not None for src in store._sources))
raise SystemExit(main(["map", "--manifest", {manifest!r}, "--threads", "2",
                       "--out", {lazy_out!r}]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(trajkit.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert 0 < int(done.stdout.splitlines()[0]) < n
    assert (tmp_path / "lazy" / "map.csv").read_bytes() == (
        tmp_path / "held" / "map.csv"
    ).read_bytes()
