"""Jobs that one thread shares with the threads that help it.

The hallmark series' stream (``hallmarks._stream_products``) runs its
products and subtractions in batches through a ``Share``; ``hallmarks``
above one thread lets its calling thread help once its Gram pass is
done, and at one thread nothing helps. A job runs on whichever thread
takes it, but ``run`` returns each job's error in job order, and the
stream raises the first of them in the order of its loop, so the thread
that ran a job never shows in a result or an error.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from collections.abc import Callable


class Share:
    """Runs batches of jobs on the calling thread and on its helpers.

    ``run`` offers every other job of a batch, runs the rest itself, then
    runs each offered job that no helper has claimed, and waits only on
    the claimed ones. ``help`` runs offered jobs until ``close``. A share
    that no thread helps runs every job on the thread that calls ``run``.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._offered: deque = deque()  # jobs of the running batch
        self._claimed = 0  # offered jobs a helper is running
        self._closed = False

    def run(self, jobs: list[Callable[[], object]]) -> list[BaseException | None]:
        """Runs each of ``jobs`` once; returns what each raised, or None."""
        errors: list[BaseException | None] = [None] * len(jobs)

        def call(i: int) -> None:
            try:
                jobs[i]()
            except BaseException as exc:  # the batch raises it, in job order
                errors[i] = exc

        with self._cond:
            self._offered.extend(functools.partial(call, i) for i in range(1, len(jobs), 2))
            self._cond.notify_all()
        for i in range(0, len(jobs), 2):
            call(i)
        with self._cond:
            unclaimed = list(self._offered)
            self._offered.clear()
        for job in unclaimed:
            job()
        with self._cond:
            self._cond.wait_for(lambda: not self._claimed)
        return errors

    def help(self) -> None:
        """Runs offered jobs until the share is closed."""
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._offered or self._closed)
                if self._closed:
                    return
                job = self._offered.popleft()
                self._claimed += 1
            try:  # run's call keeps a job's exception; an interrupt still unclaims it
                job()
            finally:
                with self._cond:
                    self._claimed -= 1
                    self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

