"""Job handles: completion without a per-handle event, and retention.

A handle that is terminal before ``submit`` returns it (every cache
hit) never allocates a ``threading.Event``; a caller that waits on a
still-pending handle creates one, race-free with the terminal
transition.  These tests drive every way a handle finishes (at submit,
executed, coalesced, cancelled, timed out) through ``wait``, ``result``,
``done`` and ``latency``, stress waiters against finishing workers, and
pin the queue's handle-table trimming.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc

import pytest

from repro.circuits.circuit import Circuit
from repro.execution.results import RunResult
from repro.gates.qubit import X
from repro.qudits import qubits
from repro.resilience import Deadline, JobTimeoutError
from repro.service import (
    JobCancelledError,
    JobQueue,
    JobState,
)

TREE = dict(num_controls=3, backend="classical", initial=(1, 1, 1, 0))


def _stub_result(request=None):
    return RunResult(backend="classical", wires=tuple(qubits(1)),
                     values=(1,))


class _GatedRunner:
    """Parks runs whose seed is in ``gated`` until released."""

    def __init__(self, gated=()):
        self.gated = set(gated)
        self.release = threading.Event()

    def __call__(self, request):
        if request.seed in self.gated:
            assert self.release.wait(timeout=30)
        return _stub_result()


def _running(job) -> None:
    deadline = time.monotonic() + 10
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _assert_finished(job, state) -> None:
    assert job.done()
    assert job.state is state
    assert job.wait(timeout=0)
    assert job.latency is not None and job.latency >= 0


class TestCompletion:
    def test_finished_at_submit_allocates_no_event(self):
        with JobQueue(workers=1) as queue:
            queue.submit("qutrit_tree", **TREE).result(timeout=60)
            hit = queue.submit("qutrit_tree", **TREE)
            assert hit.served_from == "memory"
            _assert_finished(hit, JobState.DONE)
            assert hit.result(timeout=0).values == (1, 1, 1, 1)
        assert hit._waiter is None

    def test_executed_handle_wakes_its_waiter(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner) as queue:
            job = queue.submit("qutrit_tree", seed=1, **TREE)
            _running(job)
            assert not job.done() and job.latency is None
            assert not job.wait(timeout=0.01)
            assert job._waiter is not None
            threading.Timer(0.05, runner.release.set).start()
            assert job.result(timeout=30).values == (1,)
        _assert_finished(job, JobState.DONE)
        assert job._waiter.is_set()

    def test_coalesced_followers_finish_with_the_leader(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner) as queue:
            leader = queue.submit("qutrit_tree", seed=1, **TREE)
            _running(leader)
            followers = [queue.submit("qutrit_tree", seed=1, **TREE)
                         for _ in range(3)]
            assert {f.served_from for f in followers} == {"coalesced"}
            waiting = threading.Thread(target=followers[0].wait, args=(30,))
            waiting.start()
            runner.release.set()
            results = [f.result(timeout=30) for f in followers]
            waiting.join(timeout=30)
        assert not waiting.is_alive()
        assert all(r is results[0] for r in results)
        for job in (leader, *followers):
            _assert_finished(job, JobState.DONE)

    def test_cancelled_handle(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner) as queue:
            _running(queue.submit("qutrit_tree", seed=1, **TREE))
            queued = queue.submit("qutrit_tree", seed=2, **TREE)
            assert queue.cancel(queued)
            runner.release.set()
        _assert_finished(queued, JobState.CANCELLED)
        with pytest.raises(JobCancelledError):
            queued.result(timeout=0)
        assert queued._waiter is None

    def test_timed_out_handle(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner) as queue:
            _running(queue.submit("qutrit_tree", seed=1, **TREE))
            doomed = queue.submit("qutrit_tree", seed=2, **TREE,
                                  deadline=Deadline.after(1e-9))
            waiter = threading.Thread(target=doomed.wait, args=(30,))
            waiter.start()
            runner.release.set()
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            with pytest.raises(JobTimeoutError, match="timed out"):
                doomed.result(timeout=30)
        _assert_finished(doomed, JobState.TIMED_OUT)

    def test_waiters_race_finishing_workers(self):
        # Eight submitter threads each wait on their own handles and on
        # a neighbour's while four workers finish them, with the
        # interpreter switching threads as often as it can.
        def runner(request):
            time.sleep(0)
            return _stub_result()

        handles: list[list] = [[] for _ in range(8)]
        ready = threading.Barrier(8)
        errors: list = []

        def work(slot, queue):
            try:
                for k in range(60):
                    handles[slot].append(queue.submit(
                        "qutrit_tree", seed=1000 * slot + k, **TREE
                    ))
                ready.wait(timeout=30)
                neighbour = handles[(slot + 1) % 8]
                for job in handles[slot] + neighbour:
                    job.result(timeout=30)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobQueue(workers=4, runner=runner,
                          max_pending=1024) as queue:
                threads = [threading.Thread(target=work, args=(s, queue))
                           for s in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        jobs = [job for slot in handles for job in slot]
        assert len(jobs) == 480
        assert all(job.state is JobState.DONE for job in jobs)
        assert all(job._waiter is None or job._waiter.is_set()
                   for job in jobs)

    def test_retained_bytes_per_cache_hit_handle(self):
        target = Circuit([X.on(qubits(1)[0])])
        hit = dict(backend="classical", initial=(0,))
        with JobQueue(workers=1) as queue:
            queue.submit(target, **hit).result(timeout=60)
            for _ in range(50):
                queue.submit(target, **hit)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                handles = [queue.submit(target, **hit)
                           for _ in range(2000)]
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert {job.served_from for job in handles} == {"memory"}
        assert retained / len(handles) <= 800


class TestRetention:
    def test_newest_terminal_handles_are_kept(self):
        with JobQueue(workers=1, job_retention=5) as queue:
            first = queue.submit("qutrit_tree", **TREE)
            first.result(timeout=60)
            hits = [queue.submit("qutrit_tree", **TREE) for _ in range(12)]
            for job in hits[-5:]:
                assert queue.job(job.id) is job
            for job in [first, *hits[:-5]]:
                with pytest.raises(KeyError, match=job.id):
                    queue.status(job.id)
            assert len(queue._jobs) == 5

    def test_unfinished_handles_survive_the_trim(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner, job_retention=4) as queue:
            queue.submit("qutrit_tree", seed=9, **TREE).result(timeout=30)
            running = queue.submit("qutrit_tree", seed=1, **TREE)
            _running(running)
            queued = queue.submit("qutrit_tree", seed=2, **TREE)
            hits = [queue.submit("qutrit_tree", seed=9, **TREE)
                    for _ in range(10)]
            assert queue.job(running.id) is running
            assert queue.status(queued.id) is JobState.QUEUED
            for job in hits[-2:]:
                assert queue.job(job.id) is job
            with pytest.raises(KeyError):
                queue.job(hits[-3].id)
            runner.release.set()
            assert queue.result(queued.id, timeout=30).values == (1,)

    def test_lookups_never_miss_a_live_handle_during_trims(self):
        # Every submit past the retention moves each unfinished handle
        # to the newest end; a reader looking them up by id without the
        # queue lock must find them throughout.
        runner = _GatedRunner(gated={1})
        misses: list = []
        done = threading.Event()
        with JobQueue(workers=1, runner=runner, job_retention=4) as queue:
            queue.submit("qutrit_tree", seed=9, **TREE).result(timeout=30)
            leader = queue.submit("qutrit_tree", seed=1, **TREE)
            _running(leader)
            pending = [leader, queue.submit("qutrit_tree", seed=2, **TREE)]
            pending += [queue.submit("qutrit_tree", seed=1, **TREE)
                        for _ in range(18)]

            def read():
                while not done.is_set():
                    for job in pending:
                        try:
                            queue.job(job.id)
                        except KeyError as error:
                            misses.append(error)

            reader = threading.Thread(target=read)
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                reader.start()
                for _ in range(1000):
                    queue.submit("qutrit_tree", seed=9, **TREE)
            finally:
                done.set()
                sys.setswitchinterval(previous)
                reader.join(timeout=30)
            runner.release.set()
        assert misses == []

    def test_all_unfinished_table_stops_after_one_pass(self):
        runner = _GatedRunner(gated={1})
        with JobQueue(workers=1, runner=runner, job_retention=2) as queue:
            jobs = [queue.submit("qutrit_tree", seed=1, **TREE)
                    for _ in range(5)]
            assert all(queue.job(job.id) is job for job in jobs)
            runner.release.set()
            for job in jobs:
                job.result(timeout=30)
            # The next submit trims the now-terminal backlog.
            queue.submit("qutrit_tree", seed=1, **TREE)
            assert len(queue._jobs) == 2
