"""The resilience layer wired through the queue, store, and protocol."""

import json
import threading
import time

import pytest

from repro.execution.results import RunResult
from repro.resilience import (
    AdmissionError,
    AdmissionPolicy,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    JobTimeoutError,
    RetryPolicy,
    TransientServiceError,
)
from repro.service import (
    JobCancelledError,
    JobQueue,
    JobState,
    QueueClosedError,
    ResultStore,
    handle_request,
    serve_lines,
)
from repro.service.protocol import MAX_LINE_BYTES

SUBMIT = {
    "target": "qutrit_tree",
    "build": {"num_controls": 3},
    "backend": "classical",
    "input": [1, 1, 1, 0],
}


def submit_kwargs(**extra):
    kwargs = dict(
        backend="classical", initial=(1, 1, 1, 0), num_controls=3,
    )
    kwargs.update(extra)
    return kwargs


def quick_result(request):
    return RunResult(backend="classical", wires=(), values=(0, 0, 0, 0))


class TestDeadlines:
    def test_expired_at_pop_goes_timed_out(self):
        release = threading.Event()

        def runner(request):
            release.wait(10)
            return quick_result(request)

        with JobQueue(workers=1, runner=runner) as queue:
            blocker = queue.submit("qutrit_tree", **submit_kwargs())
            while blocker.state is not JobState.RUNNING:
                time.sleep(0.001)
            # Queued behind the blocker with an already-tiny budget.
            doomed = queue.submit(
                "qutrit_tree", **submit_kwargs(seed=1),
                deadline=Deadline.after(1e-9),
            )
            release.set()
            assert doomed.wait(timeout=10)
            assert doomed.state is JobState.TIMED_OUT
            with pytest.raises(JobTimeoutError):
                doomed.result()
            assert queue.stats.timed_out == 1
        assert blocker.state is JobState.DONE

    def test_completion_wins_the_race(self):
        # A generous deadline on fast work must never time out; hammer
        # a batch to shake out ordering races around the expiry check.
        with JobQueue(workers=4, runner=quick_result) as queue:
            jobs = [
                queue.submit(
                    "qutrit_tree", **submit_kwargs(seed=index),
                    deadline=30.0,
                )
                for index in range(40)
            ]
            for job in jobs:
                assert job.result(timeout=30) is not None
                assert job.state is JobState.DONE

    def test_result_wait_timeout_is_typed(self):
        release = threading.Event()

        def runner(request):
            release.wait(10)
            return quick_result(request)

        with JobQueue(workers=1, runner=runner) as queue:
            job = queue.submit("qutrit_tree", **submit_kwargs())
            with pytest.raises(JobTimeoutError):
                job.result(timeout=0.01)
            # The old except-clause contract still holds.
            with pytest.raises(TimeoutError):
                job.result(timeout=0.01)
            release.set()
            assert job.result(timeout=10) is not None


class TestRetries:
    def test_transient_failures_retry_and_record_history(self):
        failures = {"left": 2}

        def flaky(request):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise TransientServiceError("flaky backend")
            return quick_result(request)

        policy = RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=0.002, seed=3,
        )
        with JobQueue(
            workers=1, runner=flaky, retry_policy=policy,
        ) as queue:
            job = queue.submit("qutrit_tree", **submit_kwargs())
            assert job.result(timeout=10) is not None
        assert [a.attempt for a in job.attempts] == [1, 2]
        assert all(a.retried for a in job.attempts)
        assert all(
            a.error_type == "TransientServiceError" for a in job.attempts
        )
        assert queue.stats.retries == 2
        assert queue.stats.executed == 3  # two failures + the success

    def test_exhausted_attempts_fail_with_final_record(self):
        def always_down(request):
            raise TransientServiceError("still down")

        policy = RetryPolicy(max_attempts=2, base_delay=0.001, seed=3)
        with JobQueue(
            workers=1, runner=always_down, retry_policy=policy,
        ) as queue:
            job = queue.submit("qutrit_tree", **submit_kwargs())
            job.wait(timeout=10)
        assert job.state is JobState.FAILED
        assert len(job.attempts) == 2
        assert job.attempts[-1].retried is False
        assert job.attempts[-1].delay == 0.0

    def test_non_retryable_errors_fail_immediately(self):
        def broken(request):
            raise ValueError("logic bug")

        policy = RetryPolicy(max_attempts=4, base_delay=0.001)
        with JobQueue(
            workers=1, runner=broken, retry_policy=policy,
        ) as queue:
            job = queue.submit("qutrit_tree", **submit_kwargs())
            job.wait(timeout=10)
        assert job.state is JobState.FAILED
        assert len(job.attempts) == 1
        assert queue.stats.retries == 0


class TestShutdownAndDrain:
    def test_shutdown_no_wait_cancels_queued_with_reason(self):
        release = threading.Event()

        def runner(request):
            release.wait(10)
            return quick_result(request)

        queue = JobQueue(workers=1, runner=runner)
        blocker = queue.submit("qutrit_tree", **submit_kwargs())
        while blocker.state is not JobState.RUNNING:
            time.sleep(0.001)
        queued = queue.submit("qutrit_tree", **submit_kwargs(seed=1))
        queue.shutdown(wait=False)
        assert queued.state is JobState.CANCELLED
        with pytest.raises(JobCancelledError, match="queue shut down"):
            queued.result()
        release.set()
        queue.shutdown(wait=True)

    def test_submit_after_shutdown_raises_typed_closed_error(self):
        queue = JobQueue(workers=1, runner=quick_result)
        queue.shutdown()
        with pytest.raises(QueueClosedError):
            queue.submit("qutrit_tree", **submit_kwargs())
        # Pre-existing except RuntimeError call sites keep working.
        assert issubclass(QueueClosedError, RuntimeError)

    def test_drain_waits_idle_and_stops_admission(self):
        with JobQueue(workers=2, runner=quick_result) as queue:
            jobs = [
                queue.submit("qutrit_tree", **submit_kwargs(seed=index))
                for index in range(8)
            ]
            assert queue.drain(timeout=10) is True
            assert all(job.state is JobState.DONE for job in jobs)
            with pytest.raises(QueueClosedError):
                queue.submit("qutrit_tree", **submit_kwargs())


class TestAdmission:
    def test_reject_oversized_and_count(self):
        policy = AdmissionPolicy(max_state_bytes=1)
        with JobQueue(
            workers=1, runner=quick_result, admission=policy,
        ) as queue:
            with pytest.raises(AdmissionError):
                queue.submit(
                    "qutrit_tree", backend="statevector", num_controls=3,
                )
            assert queue.stats.admission_rejected == 1
            assert queue.stats.submitted == 0

    def test_estimate_sizes_the_submitted_wires(self):
        # X on one of eight qubits, 50 trials: a 256-amplitude register
        # of 50 row pairs (409,600 B), though the circuit touches one.
        from repro.circuits.circuit import Circuit
        from repro.gates.qubit import X
        from repro.noise import SC
        from repro.qudits import qubits

        wires = qubits(8)
        circuit = Circuit([X.on(wires[0])])
        submit = dict(
            backend="trajectory", noise_model=SC, trials=50, seed=1,
        )
        policy = AdmissionPolicy(max_state_bytes=409_600 - 1)
        with JobQueue(
            workers=1, runner=quick_result, admission=policy,
        ) as queue:
            queue.submit(circuit, **submit)
            with pytest.raises(AdmissionError, match="409600 B"):
                queue.submit(circuit, wires=wires, **submit)
            assert queue.stats.admission_rejected == 1

    def test_parallel_downgrades_to_serial_and_runs(self):
        # Budget fits one serial statevector but not 4 worker copies.
        policy = AdmissionPolicy(max_state_bytes=1 << 20)
        with JobQueue(
            workers=1, runner=quick_result, admission=policy,
        ) as queue:
            job = queue.submit(
                "qutrit_tree", backend="statevector", num_controls=7,
                parallel=True, workers=64,
            )
            assert job.result(timeout=30) is not None
        assert job.degraded == ("parallel-to-serial",)
        assert queue.stats.degraded == 1


class TestStoreBreaker:
    def test_corruption_trips_breaker_then_short_circuits(self, tmp_path):
        store = ResultStore(
            tmp_path,
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=60.0,
            ),
        )
        key = ("fp", "classical", None, 0)
        store.path_for(key).write_text("{ corrupt")
        assert store.get(key) is None
        assert store.stats.corrupt_dropped == 1
        assert store.breaker.state == "open"
        # Open breaker: reads short-circuit instead of touching disk.
        assert store.get(key) is None
        assert store.stats.short_circuited >= 1

    def test_healthy_miss_feeds_breaker_success(self, tmp_path):
        store = ResultStore(
            tmp_path,
            breaker=CircuitBreaker(failure_threshold=1),
        )
        assert store.get(("fp", "classical", None, 1)) is None
        assert store.breaker.state == "closed"

    def test_injected_store_faults_absorbed_not_raised(self, tmp_path):
        injector = FaultInjector(
            rate={"store.read": 1.0, "store.write": 1.0},
        )
        store = ResultStore(tmp_path, fault_injector=injector)
        result = RunResult(backend="classical", wires=(), values=(1,))
        assert store.put(("fp", "classical", None, 2), result) is False
        assert store.get(("fp", "classical", None, 2)) is None
        assert store.stats.io_errors == 2

    def test_store_stats_to_dict_round_trips_json(self, tmp_path):
        store = ResultStore(tmp_path)
        store.get(("fp", "classical", None, 3))
        data = json.loads(json.dumps(store.stats.to_dict()))
        assert data["misses"] == 1
        for counter in ("hits", "writes", "corrupt_dropped", "evictions",
                        "io_errors", "short_circuited"):
            assert counter in data


class TestProtocolHardening:
    def test_oversized_line_gets_structured_error(self):
        responses = []
        with JobQueue(workers=1, runner=quick_result) as queue:
            outcome = serve_lines(
                queue,
                ["x" * (MAX_LINE_BYTES + 1), json.dumps({"op": "ping"})],
                responses.append,
                hello=False,
            )
        assert outcome == "eof"
        first, second = (json.loads(r) for r in responses)
        assert first["ok"] is False and "exceeds" in first["error"]
        assert second["ok"] is True and second["pong"] is True

    def test_malformed_json_keeps_loop_alive(self):
        responses = []
        with JobQueue(workers=1, runner=quick_result) as queue:
            serve_lines(
                queue,
                ["{not json", "[1, 2]", json.dumps({"op": "ping"})],
                responses.append,
                hello=False,
            )
        decoded = [json.loads(r) for r in responses]
        assert [r["ok"] for r in decoded] == [False, False, True]

    def test_drain_op(self):
        with JobQueue(workers=1, runner=quick_result) as queue:
            response = handle_request(
                queue, {"op": "drain", "timeout": 10, "id": 9}
            )
            assert response == {"ok": True, "drained": True, "id": 9}
            closed = handle_request(
                queue, {"op": "submit", **SUBMIT}
            )
        assert closed["ok"] is False and closed.get("closed") is True

    def test_internal_error_is_flagged_not_fatal(self):
        with JobQueue(workers=1, runner=quick_result) as queue:
            original = queue.describe
            queue.describe = lambda: 1 / 0
            try:
                response = handle_request(queue, {"op": "stats"})
            finally:
                queue.describe = original
            assert response["ok"] is False
            assert response["internal"] is True
            # The queue survived; a follow-up op works.
            assert handle_request(queue, {"op": "ping"})["ok"] is True

    def test_injected_protocol_fault_is_transient_response(self):
        from repro.resilience import injected

        injector = FaultInjector(rate={"protocol.request": 1.0})
        with JobQueue(workers=1, runner=quick_result) as queue:
            with injected(injector):
                response = handle_request(queue, {"op": "ping"})
        assert response["ok"] is False
        assert response["transient"] is True

    def test_submit_with_deadline_and_attempt_history(self):
        def flaky_once(request, state={"failed": False}):
            if not state["failed"]:
                state["failed"] = True
                raise TransientServiceError("first try fails")
            return quick_result(request)

        policy = RetryPolicy(max_attempts=2, base_delay=0.001)
        with JobQueue(
            workers=1, runner=flaky_once, retry_policy=policy,
        ) as queue:
            response = handle_request(queue, {
                "op": "submit", **SUBMIT, "deadline": 30, "wait": True,
            })
        assert response["ok"] is True
        assert response["state"] == "DONE"
        attempts = response["attempts"]
        assert len(attempts) == 1 and attempts[0]["retried"] is True

    def test_stats_op_exposes_store_and_breaker(self, tmp_path):
        store = ResultStore(tmp_path, breaker=CircuitBreaker())
        with JobQueue(
            workers=1, runner=quick_result, store=store,
        ) as queue:
            response = handle_request(queue, {"op": "stats"})
        assert response["ok"] is True
        assert "store" in response["stats"]
        assert response["stats"]["breaker"]["state"] == "closed"
