import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trajkit import (
    Checkpoint,
    Dtype,
    TensorRecord,
    TrajectoryStore,
    read_checkpoint,
    write_store,
)


# bound here, so that a test that patches os.sched_*affinity does not reach them
_getaffinity = getattr(os, "sched_getaffinity", None)
_setaffinity = getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def cpu_mask_kept():
    """Every thread pool restores its calling thread's CPU mask: a test
    that leaves the test thread placed fails, rather than the next test
    that reads the mask."""
    before = _getaffinity(0) if _getaffinity else None
    yield
    if before is not None:
        assert _getaffinity(0) == before, "the test thread's CPU mask was left changed"


@pytest.fixture
def few_cpus():
    """``few_cpus(k)`` narrows the test thread's mask to the first k CPUs of
    its set, so that the pools of a k-thread call place their threads, and
    returns those CPUs in order. After the test the narrowed mask must
    still be the test thread's, and the wider one is restored. Skips
    without CPU affinity."""
    if _getaffinity is None:
        pytest.skip("the platform has no CPU affinity")
    before, narrowed = _getaffinity(0), []

    def narrow(k: int) -> list[int]:
        narrowed[:] = sorted(before)[:k]
        _setaffinity(0, narrowed)
        return list(narrowed)

    yield narrow
    after = _getaffinity(0)
    _setaffinity(0, before)
    if narrowed:
        assert after == set(narrowed), "the test thread's CPU mask was left changed"


def random_store(rng: np.random.Generator, n: int, p: int) -> TrajectoryStore:
    return TrajectoryStore.from_arrays(rng.standard_normal((n, p)))


def random_checkpoint(rng: np.random.Generator, index: int = 0, max_rank: int = 4) -> Checkpoint:
    tensors = []
    for ti in range(int(rng.integers(1, 5))):
        dtype = Dtype(int(rng.integers(0, 3)))
        rank = int(rng.integers(0, max_rank + 1))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rank))
        nel = int(np.prod(dims)) if dims else 1
        data = rng.standard_normal(nel).astype(dtype.np_dtype)
        tensors.append(TensorRecord(f"t{ti}.x", dtype, dims, data))
    return Checkpoint(index=index, label=f"ckpt{index}", tensors=tensors)


def mixed_dtype_store(tmp_path, n=5):
    """Tensors of F16/F32/F64 whose sizes put 4096-column chunk edges inside them."""
    rng = np.random.default_rng(3)
    shapes = [("a", Dtype.F16, (3000,)), ("b", Dtype.F32, (50, 100)), ("c", Dtype.F64, (2500,)),
              ("d", Dtype.F32, (1234,)), ("e", Dtype.F32, (7,)), ("f", Dtype.F16, (3, 3))]
    ckpts = [
        Checkpoint(i, f"c{i}", [
            TensorRecord(name, dtype, dims, rng.standard_normal(int(np.prod(dims))))
            for name, dtype, dims in shapes
        ])
        for i in range(n)
    ]
    return write_store(ckpts, tmp_path)


def in_memory_store(manifest) -> TrajectoryStore:
    """The trajectory ``open_store(manifest)`` opens, built in memory from its
    checkpoints by ``TrajectoryStore.from_checkpoints``."""
    manifest = Path(manifest)
    return TrajectoryStore.from_checkpoints([
        read_checkpoint(manifest.parent / e["path"], index=e["index"], label=e["label"])
        for e in json.loads(manifest.read_text())["checkpoints"]
    ])


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, as a strict parser does."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


class WaitingStream:
    """Patches ``hallmarks._run_batch`` so that a shared stream waits for the
    executor's worker instead of racing it: once ``joined`` is set (the
    worker is free to take jobs), the stream's next batch of two or more
    jobs holds its first job, which the stream's own thread runs, until the
    worker has run one of the submitted ones. ``helped`` gets True for each
    job the worker ran."""

    def __init__(self, monkeypatch):
        from trajkit import hallmarks

        run_batch = hallmarks._run_batch
        self.helped, self.joined = [], threading.Event()
        ran = {}  # pool -> set once its worker has run one of the stream's jobs

        def running(jobs, pool):
            stream = threading.current_thread()
            worker_ran = ran.setdefault(pool, threading.Event())

            def tracked(job):
                def call():
                    if threading.current_thread() is not stream:
                        self.helped.append(True)
                        worker_ran.set()
                    job()

                return call

            jobs = [tracked(job) for job in jobs]
            if pool is not None and self.joined.is_set() and not worker_ran.is_set() \
                    and len(jobs) > 1:
                first = jobs[0]

                def held():
                    assert worker_ran.wait(timeout=60)
                    first()

                jobs[0] = held
            return run_batch(jobs, pool)

        monkeypatch.setattr(hallmarks, "_run_batch", running)

    def occupy(self, pool) -> threading.Event:
        """Keeps ``pool``'s one worker busy, as the Gram pass does, until the
        returned event is set; ``joined`` is set as it frees the worker."""
        release = threading.Event()

        def busy():
            assert release.wait(timeout=60)
            self.joined.set()

        pool.submit(busy)
        return release


@pytest.fixture
def rng():
    return np.random.default_rng(0)
