"""Worker threads for the package's data-parallel loops.

A task is split into `workers` parts; part w is a generator task(w) that
yields between its steps (a Monte Carlo batch, a scan window).  The
calling thread runs part 0 and plain threads the others: the
concurrent.futures import alone costs ~20 ms and ~1 MB.  Callers charge
every worker's memory against the budget before calling run_workers, so
a refused request starts no thread.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator


def worker_count(threads: int, units: int, cpus: int | None) -> int:
    """Worker threads for `units` units of work: min(threads, units,
    cpus), at least 1; cpus is os.cpu_count(), None if unknown."""
    return max(1, min(threads, units, cpus or 1))


def run_workers(workers: int, task: Callable[[int], Iterator[None]]) -> None:
    """Run task(0), ..., task(workers - 1) to completion, each on its own
    thread, task(0) on the calling one.

    Once one part raises, every other part stops at its next yield, all
    threads are joined, and the first error is re-raised here.
    """
    errors: list[BaseException] = []

    def run(w: int) -> None:
        try:
            for _ in task(w):
                if errors:  # another part failed: the result is void
                    return
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    started = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=run, args=(w,))
            t.start()
            started.append(t)
        run(0)
    except BaseException as exc:  # a thread failed to start: stop the others
        errors.append(exc)
        raise
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
