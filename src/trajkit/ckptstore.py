"""Checkpoint file format and trajectory store.

A trajectory is an ordered list of checkpoints with an identical tensor
layout. Each checkpoint lives in its own binary file; a JSON manifest
fixes the trajectory order. Flattening concatenates the selected tensors
in the order they appear in the checkpoint file, upconverted to float64.

Binary layout (all integers little-endian):
    magic    8 bytes  b"TRAJCKPT"
    version  u32      1
    count    u32      number of tensors
    per tensor:
        name_len u16, name bytes (UTF-8),
        dtype u8 (0=F32, 1=F64, 2=F16), rank u8, dims rank x u64,
        raw little-endian payload
"""

from __future__ import annotations

import enum
import functools
import json
import math
import os
import re
import resource
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
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

MAGIC = b"TRAJCKPT"
FORMAT_VERSION = 1
# columns a lazy flatten stages per read (16 of the Gram pass's chunks), so
# its staging arrays hold at most this many payload values, not a whole row
_FLATTEN_BLOCK = 16 * 4096


class Dtype(enum.IntEnum):
    F32 = 0
    F64 = 1
    F16 = 2

    @property
    def np_dtype(self) -> np.dtype:
        return _NP_DTYPES[self]


_NP_DTYPES = {
    Dtype.F32: np.dtype("<f4"),
    Dtype.F64: np.dtype("<f8"),
    Dtype.F16: np.dtype("<f2"),
}


@dataclass
class TensorRecord:
    """One named tensor; ``data`` is the flat row-major payload."""

    name: str
    dtype: Dtype
    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.dtype = Dtype(self.dtype)
        self.dims = tuple(int(d) for d in self.dims)
        # the header's fields bound these: name_len u16, rank u8, each dim u64
        try:
            name_bytes = len(self.name.encode("utf-8"))
        except UnicodeEncodeError:
            raise InvalidTensor(f"tensor name {self.name!r} is not UTF-8") from None
        if not 0 < name_bytes <= 0xFFFF:
            raise InvalidTensor(f"tensor name is {name_bytes} UTF-8 bytes, not 1 to 65535")
        if len(self.dims) > 0xFF:
            raise InvalidTensor(f"tensor {self.name!r}: rank {len(self.dims)} is over 255")
        if any(not 0 <= d < 1 << 64 for d in self.dims):
            raise InvalidTensor(f"tensor {self.name!r}: a dim in {self.dims} is not in [0, 2^64)")
        self.data = np.ascontiguousarray(self.data, dtype=self.dtype.np_dtype).reshape(-1)
        if self.data.size != self.n_elements:
            raise InvalidTensor(
                f"tensor {self.name!r}: {self.data.size} values for dims {self.dims}"
            )

    @property
    def n_elements(self) -> int:
        return math.prod(self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self.dims == other.dims
            and self.data.tobytes() == other.data.tobytes()
        )


@dataclass
class Checkpoint:
    index: int
    label: str
    tensors: list[TensorRecord]

    def __post_init__(self):
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise InvalidCheckpoint(f"duplicate tensor names in checkpoint {self.label!r}")

    def layout(self) -> tuple[tuple[str, Dtype, tuple[int, ...]], ...]:
        return tuple((t.name, t.dtype, t.dims) for t in self.tensors)


@dataclass(frozen=True)
class SelectionSpec:
    """Name-based tensor selection for layerwise analysis.

    Glob syntax: ``*`` matches any run of characters except ``.``,
    ``**`` matches across ``.``, ``?`` matches one character; a newline
    in a name is a character like any other.
    """

    include_globs: tuple[str, ...] = ("**",)
    exclude_globs: tuple[str, ...] = ()

    def matches(self, name: str) -> bool:
        if not any(_glob_regex(g).fullmatch(name) for g in self.include_globs):
            return False
        return not any(_glob_regex(g).fullmatch(name) for g in self.exclude_globs)


ALL = SelectionSpec()


_GLOB_TOKENS = {"**": ".*", "*": "[^.]*", "?": "."}


@functools.cache
def _glob_regex(pattern: str) -> re.Pattern:
    """The glob as a regex for ``fullmatch``; every other run is literal."""
    regex = re.sub(r"\*\*|\*|\?|[^*?]+",
                   lambda m: _GLOB_TOKENS.get(m[0]) or re.escape(m[0]), pattern)
    return re.compile(regex, re.DOTALL)


# --- file IO ---


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    if not ckpt.tensors:
        raise InvalidCheckpoint("checkpoint has zero tensors")
    heads = []  # packed first: a record changed after its checks fails before the file exists
    for t in ckpt.tensors:
        name = t.name.encode("utf-8")
        rank = len(t.dims)
        heads.append(struct.pack(f"<H{len(name)}sBB{rank}Q",
                                 len(name), name, t.dtype, rank, *t.dims))
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(ckpt.tensors)))
        for head, t in zip(heads, ckpt.tensors):
            f.write(head)
            f.write(t.data)


def _read_header(f, path: Path):
    """(name, dtype, dims, payload offset) per tensor of the checkpoint open
    as ``f``. A field or payload past the end of the file is TruncatedFile;
    tensor names must be non-empty and distinct, as in a Checkpoint."""
    size = os.fstat(f.fileno()).st_size
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > size:
            raise TruncatedFile(f"{path}: needed {n} bytes at offset {pos}")
        out = f.read(n)
        if len(out) != n:
            raise TruncatedFile(f"{path}: file shrank while it was read")
        pos += n
        return out

    if take(8) != MAGIC:
        raise BadMagic(f"{path}: not a trajectory checkpoint file")
    version, count = struct.unpack("<II", take(8))
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: version {version}")
    if count == 0:
        raise InvalidCheckpoint(f"{path}: zero tensors")
    offsets, names = [], set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise InvalidTensor(f"{path}: tensor name is not UTF-8")
        if not name:
            raise InvalidTensor(f"{path}: tensor name must be non-empty")
        if name in names:
            raise InvalidCheckpoint(f"{path}: duplicate tensor name {name!r}")
        names.add(name)
        dtype_code, rank = take(2)
        try:
            dtype = Dtype(dtype_code)
        except ValueError:
            raise InvalidTensor(f"{path}: unknown dtype code {dtype_code}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        nbytes = math.prod(dims) * dtype.np_dtype.itemsize
        if pos + nbytes > size:
            raise TruncatedFile(f"{path}: needed {nbytes} bytes at offset {pos}")
        offsets.append((name, dtype, dims, pos))
        pos += nbytes
        f.seek(pos)
    return offsets


def read_checkpoint(path, *, index: int = 0, label: str = "") -> Checkpoint:
    path = Path(path)
    tensors = []
    with open(path, "rb") as f:
        for name, dtype, dims, offset in _read_header(f, path):
            data = np.empty(math.prod(dims), dtype=dtype.np_dtype)
            _pread_into(f.fileno(), memoryview(data).cast("B"), offset, path)
            tensors.append(TensorRecord(name, dtype, dims, data))
    return Checkpoint(index=index, label=label, tensors=tensors)


# --- trajectory store ---


@dataclass
class _Source:
    """Lazy handle on one checkpoint file: payload byte offsets by tensor order.

    ``fd`` is a read-only descriptor held while the store is open, or None
    once the store is closed or past the process's descriptor budget; such
    a checkpoint is opened for each read instead.
    """

    path: Path
    offsets: list[int]
    fd: int | None = None


# Descriptors held by the open on-disk stores of this process: the descriptor
# limit is per process, so their budget is too. A set, because a finalizer
# may update it from any thread, and add/discard need no lock.
_HELD: set[int] = set()


def _descriptor_budget() -> int:
    """How many more checkpoint descriptors open stores may hold: half the
    soft RLIMIT_NOFILE, less those already held, leaves the rest of the
    process its share."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY:
        soft = 1 << 20
    return soft // 2 - len(_HELD)


def _release(sources: list[_Source]) -> None:
    for src in sources:
        if src.fd is not None:
            _HELD.discard(src.fd)
            os.close(src.fd)
            src.fd = None


def _pread_into(fd: int, view: memoryview, offset: int, path: Path) -> None:
    """Fill ``view`` from byte ``offset`` of the file; a short file is TruncatedFile."""
    while view:
        got = os.preadv(fd, [view], offset)
        if not got:
            raise TruncatedFile(f"{path}: file shrank after its headers were read")
        view, offset = view[got:], offset + got


def _row_plan(chosen, start: int, stop: int):
    """How to read columns [start, stop) of a selection for one checkpoint.

    Returns ``(reads, converts)``. Each read is (tensor index, byte offset
    in that tensor's payload, target bytes): a positioned read into a
    staging array of the payload dtype. Each convert is (first column,
    staging array), copied into the float64 row once. Neighbouring tensors
    of one dtype share a staging array. The plan holds for every
    checkpoint, since all share one layout.
    """
    runs: list[tuple[Dtype, int, list]] = []
    base = 0
    for ti, (_, dtype, dims) in chosen:
        nel = math.prod(dims)
        lo, hi = max(start - base, 0), min(stop - base, nel)
        if lo < hi:
            if not runs or runs[-1][0] != dtype:
                runs.append((dtype, base + lo - start, []))
            runs[-1][2].append((ti, lo, hi))
        base += nel
    reads, converts = [], []
    for dtype, col, parts in runs:
        size = dtype.np_dtype.itemsize
        buf = np.empty(sum(hi - lo for _, lo, hi in parts), dtype=dtype.np_dtype)
        view = memoryview(buf).cast("B")
        pos = 0
        for ti, lo, hi in parts:
            reads.append((ti, lo * size, view[pos : pos + (hi - lo) * size]))
            pos += (hi - lo) * size
        converts.append((col, buf))
    return reads, converts


class TrajectoryStore:
    """Immutable ordered trajectory with a shared tensor layout.

    A store holds the checkpoints it was built from (``from_checkpoints``,
    ``from_arrays``), or reads them from disk (``open_store``) through one
    read descriptor per checkpoint until ``close()`` (or its use as a
    context manager) releases them; a closed store still reads, opening
    each checkpoint file per read.
    """

    def __init__(self, *, indices, labels, layout, cached=None, sources=None):
        self.indices = list(indices)
        self.labels = list(labels)
        self.layout = tuple(layout)
        self._cached = cached
        self._sources = sources
        self.n_points = len(self.indices)
        self._memo: dict = {}
        self._finalizer = weakref.finalize(self, _release, sources or [])

    def close(self) -> None:
        """Release the checkpoint descriptors an on-disk store holds."""
        self._finalizer()

    def __enter__(self) -> "TrajectoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # construction -----------------------------------------------------

    @classmethod
    def from_checkpoints(cls, checkpoints: list[Checkpoint]) -> "TrajectoryStore":
        if not checkpoints:
            raise EmptyTrajectory("store has no checkpoints")
        layout = checkpoints[0].layout()
        for c in checkpoints[1:]:
            _check_layout(layout, c.layout(), c.label or str(c.index))
        seen = set()
        for c in checkpoints:
            if c.index in seen:
                raise DuplicateIndex(f"checkpoint index {c.index} appears twice")
            seen.add(c.index)
        return cls(
            indices=[c.index for c in checkpoints],
            labels=[c.label for c in checkpoints],
            layout=layout,
            cached=list(checkpoints),
        )

    @classmethod
    def from_arrays(cls, points) -> "TrajectoryStore":
        """Build an in-memory store from an (n, p) array of trajectory points,
        each one tensor named ``theta`` and labelled by its row number."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise InvalidCheckpoint("points must be a 2-D array")
        ckpts = [
            Checkpoint(
                index=i,
                label=str(i),
                tensors=[TensorRecord("theta", Dtype.F64, (points.shape[1],), points[i])],
            )
            for i in range(points.shape[0])
        ]
        return cls.from_checkpoints(ckpts)

    @property
    def is_cached(self) -> bool:
        """Whether the store is in memory rather than read from disk."""
        return self._cached is not None

    # selection --------------------------------------------------------

    def selected_layout(self, sel: SelectionSpec | None):
        """The (tensor index, layout entry) pairs ``sel`` chooses, matched
        once per store and selection; an empty choice raises every time."""
        sel = sel or ALL

        def choose():
            chosen = tuple((i, e) for i, e in enumerate(self.layout) if sel.matches(e[0]))
            if not chosen:
                raise EmptySelection(
                    f"selection {sel.include_globs}/{sel.exclude_globs} matches no tensors"
                )
            return chosen

        return self.memo(("layout", sel), choose)

    def selection_dim(self, sel: SelectionSpec | None = None) -> int:
        return sum(math.prod(dims) for _, (_, _, dims) in self.selected_layout(sel))

    # data access ------------------------------------------------------

    def memo(self, key, build):
        """``build()``, computed once per store and ``key`` (e.g. per selection)."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def flatten(
        self, i: int, sel: SelectionSpec | None = None, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Flattened float64 parameter vector of checkpoint ``i`` (store order),
        written into ``out`` when given."""
        chosen = self.selected_layout(sel)
        if out is None:
            out = np.empty(self.selection_dim(sel), dtype=np.float64)
        if self._cached is None:
            for start in range(0, out.size, _FLATTEN_BLOCK):
                stop = min(start + _FLATTEN_BLOCK, out.size)
                self._read_row(i, *_row_plan(chosen, start, stop), out[start:stop])
            return out
        col = 0
        for ti, _ in chosen:
            data = self._cached[i].tensors[ti].data
            out[col : col + data.size] = data
            col += data.size
        return out

    def matrix(self, sel: SelectionSpec | None = None) -> np.ndarray:
        """All points stacked as an (n_points, p_selected) float64 matrix."""

        def fill():
            m = np.empty((self.n_points, self.selection_dim(sel)))
            for i in range(self.n_points):
                self.flatten(i, sel, out=m[i])
            return m

        return self.memo(("matrix", sel or ALL), fill)

    def chunk_matrix(
        self, sel: SelectionSpec | None, start: int, stop: int, *, out: np.ndarray
    ) -> np.ndarray:
        """Columns [start, stop) of matrix(sel), written into ``out``, an
        (n_points, stop - start) float64 array, and returned; an on-disk
        store reads only these. An in-memory store copies them, so its
        memoised matrix is never handed out for writing.
        """
        if self._cached is not None:
            np.copyto(out, self.matrix(sel)[:, start:stop])
            return out
        reads, converts = _row_plan(self.selected_layout(sel), start, stop)
        for i in range(self.n_points):
            self._read_row(i, reads, converts, out[i])
        return out

    def _read_row(self, i: int, reads, converts, out: np.ndarray) -> None:
        """Fill the float64 row ``out`` of checkpoint ``i`` by a ``_row_plan``."""
        src = self._sources[i]
        fd = src.fd
        if fd is None:
            fd = os.open(src.path, os.O_RDONLY)
        try:
            for ti, skip, view in reads:
                _pread_into(fd, view, src.offsets[ti] + skip, src.path)
        finally:
            if fd != src.fd:
                os.close(fd)
        for col, buf in converts:
            out[col : col + buf.size] = buf


def _check_layout(expected, got, who: str) -> None:
    if expected == got:
        return
    exp_names = [e[0] for e in expected]
    got_names = [g[0] for g in got]
    missing = set(exp_names) - set(got_names)
    extra = set(got_names) - set(exp_names)
    if missing or extra:
        raise LayoutMismatch(
            f"checkpoint {who}: tensor set differs "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    if exp_names != got_names:
        raise LayoutMismatch(f"checkpoint {who}: tensor order differs")
    e, g = next((e, g) for e, g in zip(expected, got) if e != g)
    raise LayoutMismatch(f"checkpoint {who}: tensor {g[0]!r} is {g[1:]} vs {e[1:]}")


def open_store(manifest_path) -> TrajectoryStore:
    """Open a trajectory manifest; order follows the manifest entry order.

    Only the checkpoints' headers are read here. The payloads stay on disk
    and are read chunk-wise during kernel computations, through the
    descriptors opened here to parse the headers.
    """
    manifest_path = Path(manifest_path)
    entries = _manifest_entries(manifest_path)
    indices, labels, sources = [], [], []
    layout = None
    seen = set()
    budget = _descriptor_budget()
    try:
        for entry in entries:
            idx = entry["index"]
            if idx in seen:
                raise DuplicateIndex(f"manifest index {idx} appears twice")
            seen.add(idx)
            path = (manifest_path.parent / entry["path"]).resolve()
            with open(path, "rb") as f:
                header = _read_header(f, path)
                fd = os.dup(f.fileno()) if len(sources) < budget else None
            sources.append(_Source(path, [offset for *_, offset in header], fd))
            if fd is not None:
                _HELD.add(fd)
            this_layout = tuple((n, d, dims) for n, d, dims, _ in header)
            if layout is None:
                layout = this_layout
            else:
                _check_layout(layout, this_layout, entry.get("label", str(idx)))
            indices.append(idx)
            labels.append(str(entry.get("label", idx)))
        return TrajectoryStore(indices=indices, labels=labels, layout=layout, sources=sources)
    except BaseException:
        _release(sources)
        raise


def _manifest_entries(manifest_path: Path) -> list[dict]:
    """The manifest's checkpoint entries, each with an integer index and a path."""
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidManifest(f"{manifest_path}: not a JSON document ({exc})")
    if not isinstance(manifest, dict):
        raise InvalidManifest(f"{manifest_path}: expected a JSON object")
    if manifest.get("version") != 1:
        raise UnsupportedVersion(f"manifest version {manifest.get('version')!r}")
    entries = manifest.get("checkpoints")
    if not isinstance(entries, list):
        raise InvalidManifest(f"{manifest_path}: \"checkpoints\" must be a list")
    if not entries:
        raise EmptyTrajectory("manifest lists no checkpoints")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidManifest(f"{manifest_path}: entry {pos} is not an object")
        idx = entry.get("index")
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise InvalidManifest(f"{manifest_path}: entry {pos} needs an integer \"index\"")
        path = entry.get("path")
        if not isinstance(path, str) or "\0" in path:
            raise InvalidManifest(f"{manifest_path}: entry {pos} needs a string \"path\" "
                                  "without NUL characters")
        for key in ("path", "label"):
            text = entry.get(key)
            if not isinstance(text, str):
                continue
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
                raise InvalidManifest(f"{manifest_path}: entry {pos} has a \"{key}\" that "
                                      "UTF-8 cannot encode (a lone surrogate)") from None
    return entries


def write_store(checkpoints: list[Checkpoint], out_dir):
    """Write checkpoints plus ``manifest.json``; returns the manifest path.

    Checkpoints that would not open as one store (none, a repeated index,
    differing layouts) raise before anything is written.
    """
    TrajectoryStore.from_checkpoints(checkpoints)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ckpt in checkpoints:
        fname = f"ckpt_{ckpt.index:06d}.trajckpt"
        write_checkpoint(ckpt, out_dir / fname)
        entries.append({"index": ckpt.index, "label": ckpt.label, "path": fname})
    manifest = {"version": 1, "checkpoints": entries}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path
