"""The one worker-thread runner: its worker count, and what a failing
worker leaves behind."""

import os
import threading

import pytest

from phisigma.structure import MC_BATCH
from phisigma.workers import run_workers, worker_count


def test_worker_count_capped_by_threads_units_and_cpus():
    cpus = os.cpu_count()
    batches = -(-10**10 // MC_BATCH)
    assert worker_count(100000, batches, cpus) == min(100000, batches, cpus or 1)
    assert worker_count(100000, batches, 2) == 2
    assert worker_count(100000, batches, None) == 1
    assert worker_count(3, 1, 64) == 1
    assert worker_count(1, batches, 64) == 1
    assert worker_count(5, 20, 64) == 5
    assert worker_count(4, 0, 64) == 1  # no work still runs on the caller


def test_every_part_runs_once_worker_0_on_the_caller():
    ran = []

    def task(w):
        ran.append((w, threading.current_thread() is threading.main_thread()))
        yield

    run_workers(4, task)
    assert sorted(ran) == [(0, True), (1, False), (2, False), (3, False)]


def test_failing_worker_reraised_and_no_thread_left():
    steps = [0] * 3
    release = threading.Event()

    def task(w):
        if w == 1:
            release.wait(timeout=10)
            raise ArithmeticError(f"worker {w}")
        for _ in range(10**6):
            steps[w] += 1
            if steps[w] == 100:
                release.set()
            yield

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="worker 1"):
        run_workers(3, task)
    assert threading.active_count() == before
    assert steps[0] < 10**6 and steps[2] < 10**6  # the others stopped early


def test_thread_that_cannot_start_stops_the_others(monkeypatch):
    real = threading.Thread.start
    starts = []

    def start(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)

    def task(w):
        for _ in range(10**7):
            yield

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start"):
        run_workers(3, task)
    assert threading.active_count() == before
    assert not starts[0].is_alive()
