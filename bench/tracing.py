"""Outside-in spans around trajkit's public functions.

The traced run wraps the functions and methods listed in ``TARGETS``
from here, without changing trajkit: each call records a span with its
name, start, end, parent and thread, plus counts derived from argument
and result shapes (never measured). Because several modules import
names directly (``from .kernel import compute_gram``), each wrapper is
installed in every ``trajkit`` module namespace that holds the original
object. A missing target raises, so a rename cannot report zeros.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


class TraceError(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    parent: int  # index into the tracer's spans, -1 for a root
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one instance per measured round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker starts with an empty stack: its parent is the span
            # the main thread is inside (compute_gram for the Gram partials)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            span = Span(name, parent, threading.get_ident())
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# --- counters: derived from shapes after the call, outside the span ------


def _lazy_chunk_bytes(args, kwargs, result):
    store, sel, start, stop = args[:4]
    if store.is_cached:
        return {"bytes": 0}
    nbytes, base = 0, 0
    for _, (_, dtype, dims) in store.selected_layout(sel):
        nel = math.prod(dims)
        nbytes += max(0, min(stop, base + nel) - max(start, base)) * dtype.np_dtype.itemsize
        base += nel
    return {"bytes": nbytes * store.n_points}


def _lazy_flatten_bytes(args, kwargs, result):
    store = args[0]
    sel = args[2] if len(args) > 2 else kwargs.get("sel")
    if store.is_cached:
        return {"bytes": 0}
    return {
        "bytes": sum(
            math.prod(dims) * dtype.np_dtype.itemsize
            for _, (_, dtype, dims) in store.selected_layout(sel)
        )
    }


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _written_bytes(args, kwargs, manifest_path):
    manifest_path = Path(manifest_path)
    entries = json.loads(manifest_path.read_text())["checkpoints"]
    files = [manifest_path, *(manifest_path.parent / e["path"] for e in entries)]
    return {"bytes": sum(f.stat().st_size for f in files)}


def _gram_flops(args, kwargs, gram):
    store = args[0]
    sel = args[2] if len(args) > 2 else kwargs.get("sel")
    return {"flops": 2 * gram.n * gram.n * store.selection_dim(sel)}


def _eig_n(args, kwargs, summary):
    return {"n": summary.n}


def _svg_bytes(args, kwargs, text):
    return {"bytes": len(text.encode())}


def _csv_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return {"bytes": os.path.getsize(path)}


def _rng_values(args, kwargs, result):
    return {"values": int(result.shape[0])}


def _train_epochs(args, kwargs, record):
    return {"epochs": len(record.losses)}


# (module, attribute path, span name, counter)
TARGETS = (
    ("trajkit.cli", "main", "cli.main", None),
    ("trajkit.ckptstore", "open_store", "ckptstore.open_store", None),
    ("trajkit.ckptstore", "write_store", "ckptstore.write_store", _written_bytes),
    ("trajkit.ckptstore", "TrajectoryStore.chunk_matrix", "ckptstore.chunk_matrix",
     _lazy_chunk_bytes),
    ("trajkit.ckptstore", "TrajectoryStore.flatten", "ckptstore.flatten", _lazy_flatten_bytes),
    ("trajkit.ckptstore", "TrajectoryStore.matrix", "ckptstore.matrix", _matrix_bytes),
    ("trajkit.kernel", "compute_gram", "kernel.compute_gram", _gram_flops),
    ("trajkit.kernel", "compute_cosine_map", "kernel.compute_cosine_map", None),
    ("trajkit.hallmarks", "angular_series", "hallmarks.angular_series", None),
    ("trajkit.hallmarks", "norm_series", "hallmarks.norm_series", None),
    ("trajkit.spectral", "symmetric_eigenvalues", "spectral.symmetric_eigenvalues", _eig_n),
    ("trajkit.heatmap", "render_svg", "heatmap.render_svg", _svg_bytes),
    ("trajkit.report", "write_matrix_csv", "report.csv", _csv_bytes),
    ("trajkit.report", "write_series_csv", "report.csv", _csv_bytes),
    ("trajkit.report", "write_spectrum_csv", "report.csv", _csv_bytes),
    ("trajkit.rng", "Rng.uint64", "rng.uint64", _rng_values),
    ("trajkit.trajgen", "train", "trajgen.train", _train_epochs),
    ("trajkit.theory", "width_alignment", "theory.width_alignment", None),
    ("trajkit.theory", "eos_angle_sweep", "theory.eos_angle_sweep", None),
    ("trajkit.theory", "simulate_quadratic", "theory.simulate_quadratic", None),
    ("trajkit.theory", "lemma_bounds", "theory.lemma_bounds", None),
)

SPAN_NAMES = sorted({t[2] for t in TARGETS})


def install(tracer: Tracer) -> list:
    """Wrap every target everywhere it is bound; returns the undo list."""
    importlib.import_module("trajkit.cli")  # loads every module first
    undo = []
    for module_name, path, span_name, counter in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TraceError(f"{module_name}.{path}: {part!r} is missing")
        original = vars(owner).get(attr)
        if not callable(original):
            raise TraceError(f"{module_name}.{path} is missing or not callable")
        wrapped = tracer.wrap(span_name, original, counter)
        holders = [owner]
        if not outer:  # a module-level function may be imported elsewhere
            holders = [
                m for name, m in list(sys.modules.items())
                if (name == "trajkit" or name.startswith("trajkit.")) and m is not None
            ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapped)
                    undo.append((holder, name, original))
    return undo


def uninstall(undo: list) -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


# --- per-layer metrics -----------------------------------------------------


def _self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def gram_gflops(spans: list[Span]) -> float:
    """2 n^2 p per compute_gram call over the calls' whole spans, in GFLOP/s.

    Whole spans, reads included: with a worker pool, the part of a span
    that no child read covers says nothing about the GEMM time.
    """
    grams = [s for s in spans if s.name == "kernel.compute_gram"]
    return sum(s.counts["flops"] for s in grams) / 1e9 / sum(s.end - s.start for s in grams)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by metric name."""
    self_t = _self_times(spans)
    has_flatten_child = {s.parent for s in spans if s.name == "ckptstore.flatten"}
    by: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by[name])

    def self_total(name):
        return sum(self_t[i] for i in by[name])

    def count_sum(name, key, where=lambda i: True):
        return sum(spans[i].counts.get(key, 0) for i in by[name] if where(i))

    read_spans = [i for n in ("ckptstore.chunk_matrix", "ckptstore.flatten") for i in by[n]]
    read_bytes = sum(spans[i].counts["bytes"] for i in read_spans)
    read_time = sum(spans[i].end - spans[i].start for i in read_spans if spans[i].counts["bytes"])
    uint64_s = total("rng.uint64")
    values = count_sum("rng.uint64", "values")
    train_self = self_total("trajgen.train")
    epochs = count_sum("trajgen.train", "epochs")
    lemma_s = total("theory.lemma_bounds") + sum(
        spans[i].end - spans[i].start
        for i in by["theory.simulate_quadratic"]
        if spans[i].parent < 0 or spans[spans[i].parent].name != "theory.eos_angle_sweep"
    )
    return {
        "ckptstore.open_store_s": total("ckptstore.open_store"),
        "ckptstore.open_store_calls": len(by["ckptstore.open_store"]),
        "ckptstore.chunk_matrix_s": total("ckptstore.chunk_matrix"),
        "ckptstore.chunk_matrix_calls": len(by["ckptstore.chunk_matrix"]),
        "ckptstore.payload_bytes_read": read_bytes,
        "ckptstore.read_mb_per_s": read_bytes / 1e6 / read_time if read_time else 0.0,
        "ckptstore.matrix_s": total("ckptstore.matrix"),
        "ckptstore.matrix_bytes": count_sum(
            "ckptstore.matrix", "bytes", lambda i: i in has_flatten_child
        ),
        "ckptstore.write_store_s": total("ckptstore.write_store"),
        "ckptstore.bytes_written": count_sum("ckptstore.write_store", "bytes"),
        "kernel.compute_gram_self_s": self_total("kernel.compute_gram"),
        "kernel.compute_gram_calls": len(by["kernel.compute_gram"]),
        "kernel.gram_gflops": gram_gflops(spans),
        "kernel.compute_cosine_map_s": total("kernel.compute_cosine_map"),
        "hallmarks.angular_series_self_s": self_total("hallmarks.angular_series"),
        "hallmarks.norm_series_self_s": self_total("hallmarks.norm_series"),
        "spectral.symmetric_eigenvalues_s": total("spectral.symmetric_eigenvalues"),
        "spectral.eig_calls": len(by["spectral.symmetric_eigenvalues"]),
        "spectral.eig_max_n": max(
            spans[i].counts["n"] for i in by["spectral.symmetric_eigenvalues"]
        ),
        "heatmap.render_svg_s": total("heatmap.render_svg"),
        "heatmap.svg_bytes": count_sum("heatmap.render_svg", "bytes"),
        "report.csv_s": total("report.csv"),
        "report.csv_bytes": count_sum("report.csv", "bytes"),
        "rng.uint64_s": uint64_s,
        "rng.uint64_calls": len(by["rng.uint64"]),
        "rng.values": values,
        "rng.values_per_s": values / uint64_s,
        "trajgen.train_self_s": train_self,
        "trajgen.epochs": epochs,
        "trajgen.epoch_s": train_self / epochs,
        "theory.width_alignment_self_s": self_total("theory.width_alignment"),
        "theory.eos_angle_sweep_s": total("theory.eos_angle_sweep"),
        "theory.lemma_s": lemma_s,
        "cli.main_self_s": self_total("cli.main"),
    }


# Counts that must repeat exactly between traced rounds of the same inputs.
COUNT_METRICS = (
    "ckptstore.open_store_calls",
    "ckptstore.chunk_matrix_calls",
    "ckptstore.payload_bytes_read",
    "ckptstore.matrix_bytes",
    "ckptstore.bytes_written",
    "kernel.compute_gram_calls",
    "spectral.eig_calls",
    "spectral.eig_max_n",
    "heatmap.svg_bytes",
    "report.csv_bytes",
    "rng.uint64_calls",
    "rng.values",
    "trajgen.epochs",
)


def missing_spans(spans: list[Span]) -> list[str]:
    fired = {s.name for s in spans}
    return [name for name in SPAN_NAMES if name not in fired]


def spans_json(spans: list[Span]):
    """Rows of (name, start, end, parent, thread, counts) for the trace file."""
    for s in spans:
        yield [s.name, s.start, s.end, s.parent, s.thread, s.counts]
