import json
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
    """Patches ``Share`` so that a shared stream waits for its helper
    instead of racing it: once a thread has entered a share's ``help``,
    the first batch of two or more jobs that the share runs holds its first
    job, which the stream's own thread runs, until a helper has run one of
    the others. ``helped`` gets True for each job a helper ran; ``entered``
    is set each time a thread enters ``help``."""

    def __init__(self, monkeypatch):
        from trajkit.share import Share

        run, help_ = Share.run, Share.help
        self.helped, self.entered = [], threading.Event()
        ran = {}  # share -> set once a helper has run one of its jobs

        def helping(share):
            ran.setdefault(share, threading.Event())
            self.entered.set()
            help_(share)

        def running(share, jobs):
            stream = threading.current_thread()

            def tracked(job):
                def call():
                    if threading.current_thread() is not stream:
                        self.helped.append(True)
                        ran[share].set()
                    job()

                return call

            jobs = [tracked(job) for job in jobs]
            helper_ran = ran.get(share)
            if helper_ran is not None and not helper_ran.is_set() and len(jobs) > 1:
                first = jobs[0]

                def held():
                    assert helper_ran.wait(timeout=60)
                    first()

                jobs[0] = held
            return run(share, jobs)

        monkeypatch.setattr(Share, "run", running)
        monkeypatch.setattr(Share, "help", helping)

    def start_helper(self, share) -> threading.Thread:
        """A thread that helps ``share``, started and inside ``help``."""
        helper = threading.Thread(target=share.help)
        self.entered.clear()
        helper.start()
        assert self.entered.wait(timeout=60)
        return helper


@pytest.fixture
def rng():
    return np.random.default_rng(0)
