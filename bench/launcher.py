"""Small process that starts the measured commands, one at a time.

A child's peak RSS as read by ``wait4`` starts from the resident size of
the process that spawned it, so verbs are not spawned by the benchmark
process (which holds inputs and references) but by this one, run as
``python3 -S -E launcher.py`` with a resident size of about 10 MB,
below what any verb uses once numpy is imported.

Protocol, one JSON object per line: a request
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "cpus": [...]}``
on stdin starts the command pinned to ``cpus`` and is answered by
``{"pid": n}`` once the command started and by
``{"wall_s": s, "maxrss_kb": k, "code": c}`` once it ended.
"""

import json
import os
import sys
import time


def main() -> None:
    all_cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        os.sched_setaffinity(0, req["cpus"])  # inherited by the child
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        os.sched_setaffinity(0, all_cpus)
        print(json.dumps({"pid": pid}), flush=True)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(
            json.dumps(
                {
                    "wall_s": wall,
                    "maxrss_kb": usage.ru_maxrss,
                    "code": os.waitstatus_to_exitcode(status),
                }
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
