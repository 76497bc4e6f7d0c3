"""Line-delimited JSON protocol for ``python -m repro serve``.

One request per line in, one JSON response per line out — over
stdin/stdout by default, or a local Unix socket (``--socket``), where
each connection speaks the same protocol concurrently.  The protocol is
deliberately plain: any language that can spawn a process and write
JSON lines can drive the service.

Requests are objects with an ``op`` and optional ``id`` (echoed back)::

    {"op": "submit", "target": "qutrit_tree",
     "build": {"num_controls": 5}, "backend": "classical",
     "input": [1, 1, 1, 1, 1, 0]}
    {"op": "submit", "target": "qutrit_tree", "backend": "trajectory",
     "noise": "SC", "trials": 50, "seed": 7, "wait": true}
    {"op": "submit", "target": "qutrit_tree", "build": {"num_controls": 4},
     "pipeline": "hardware-grid-opt", "wait": true}
    {"op": "status", "job": "job-000001"}
    {"op": "result", "job": "job-000001", "timeout": 30}
    {"op": "cancel", "job": "job-000001"}
    {"op": "stats"}
    {"op": "drain", "timeout": 30}
    {"op": "shutdown"}

A submit's ``pipeline`` names a registered pipeline
(:data:`~repro.execution.PIPELINE_SPECS`).  Responses always carry
``ok``; failures add ``error`` (and ``traceback`` for FAILED jobs).
``submit`` returns the job id and state; with ``"wait": true`` it
blocks and inlines the serialized result
(:func:`~repro.service.serialization.result_to_dict`).

The loop is hardened against hostile or broken peers: a malformed or
oversized request line gets a structured ``{"ok": false}`` response, an
unexpected dispatch error is reported as ``"internal": true`` instead
of killing the server, and a peer that disconnects mid-request just
closes its own connection.  ``drain`` stops admissions and waits for
in-flight work (new submits then fail with ``"closed": true``).
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
from typing import Callable, Iterable, TextIO

from ..execution.pipeline_spec import PipelineSpec
from ..noise.presets import noise_model_named
from ..resilience.degradation import AdmissionError
from ..resilience.faults import maybe_inject
from ..resilience.retry import TransientServiceError
from .jobs import (
    JobCancelledError,
    JobFailedError,
    QueueClosedError,
    QueueFullError,
)
from .queue import JobQueue
from .serialization import result_to_dict

#: Protocol version announced in the hello line.
PROTOCOL = "repro-serve/v1"

#: Requests longer than this are refused unparsed — a missing newline
#: or a hostile client must not buffer the server into the ground.
MAX_LINE_BYTES = 1 << 20


def _resolve_pipeline(name: str | None) -> PipelineSpec | None:
    if name is None:
        return None
    try:
        return PipelineSpec.from_name(name)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


def _submit(queue: JobQueue, request: dict) -> dict:
    target = request.get("target")
    if not target:
        raise ValueError("submit needs a 'target' (construction name)")
    build = dict(request.get("build") or {})
    initial = request.get("input")
    job = queue.submit(
        target,
        backend=request.get("backend", "statevector"),
        pipeline=_resolve_pipeline(request.get("pipeline")),
        noise_model=noise_model_named(request.get("noise")),
        initial=tuple(initial) if initial is not None else None,
        shots=request.get("shots"),
        trials=request.get("trials"),
        seed=request.get("seed"),
        parallel=bool(request.get("parallel", False)),
        submitter=str(request.get("submitter", "default")),
        priority=int(request.get("priority", 0)),
        deadline=request.get("deadline"),
        **build,
    )
    response = {"ok": True, "job": job.id, "state": job.state.value}
    if job.served_from is not None:
        response["served_from"] = job.served_from
    if request.get("wait"):
        return _await_result(job, request.get("timeout"), response)
    return response


def _await_result(job, timeout, response: dict) -> dict:
    try:
        result = job.result(timeout)
    except JobFailedError as error:
        response.update(
            ok=False, state=job.state.value, error=str(error),
            traceback=error.traceback,
        )
    except JobCancelledError as error:
        response.update(ok=False, state=job.state.value, error=str(error))
    except TimeoutError as error:
        response.update(ok=False, state=job.state.value, error=str(error))
    else:
        response.update(
            ok=True, state=job.state.value, result=result_to_dict(result),
        )
        if job.latency is not None:
            response["latency_ms"] = round(job.latency * 1000, 3)
    if job.attempts:
        response["attempts"] = [a.to_dict() for a in job.attempts]
    return response


def handle_request(queue: JobQueue, request: dict) -> dict:
    """Dispatch one decoded request; always returns a response dict."""
    op = request.get("op")
    try:
        maybe_inject("protocol.request")
        if op == "submit":
            response = _submit(queue, request)
        elif op == "status":
            state = queue.status(str(request["job"]))
            response = {"ok": True, "job": request["job"],
                        "state": state.value}
        elif op == "result":
            job = queue.job(str(request["job"]))
            response = _await_result(
                job, request.get("timeout"), {"job": job.id}
            )
        elif op == "cancel":
            job = queue.job(str(request["job"]))
            cancelled = queue.cancel(job)
            response = {"ok": True, "job": job.id, "cancelled": cancelled,
                        "state": job.state.value}
        elif op == "stats":
            response = {"ok": True, "stats": dict(queue.describe())}
        elif op == "ping":
            response = {"ok": True, "pong": True}
        elif op == "drain":
            timeout = request.get("timeout")
            drained = queue.drain(
                float(timeout) if timeout is not None else None
            )
            response = {"ok": True, "drained": drained}
        elif op == "shutdown":
            response = {"ok": True, "shutdown": True}
        else:
            response = {
                "ok": False,
                "error": f"unknown op {op!r}; expected submit/status/"
                "result/cancel/stats/ping/drain/shutdown",
            }
    except QueueFullError as error:
        response = {"ok": False, "error": str(error), "rejected": True}
    except AdmissionError as error:
        response = {"ok": False, "error": str(error), "rejected": True}
    except QueueClosedError as error:
        response = {"ok": False, "error": str(error), "closed": True}
    except TransientServiceError as error:
        response = {"ok": False, "error": str(error), "transient": True}
    except (KeyError, ValueError, TypeError) as error:
        response = {"ok": False, "error": str(error)}
    except Exception as error:  # noqa: BLE001 - the loop must survive
        response = {
            "ok": False,
            "error": f"internal error: {error!r}",
            "internal": True,
        }
    if "id" in request:
        response["id"] = request["id"]
    return response


def serve_lines(
    queue: JobQueue,
    lines: Iterable[str],
    write: Callable[[str], None],
    *,
    hello: bool = True,
) -> str:
    """Run the protocol over any line source/sink until EOF/shutdown.

    Returns ``"shutdown"`` when an acknowledged shutdown op ended the
    loop, ``"eof"`` when the line source ran dry.
    """
    if hello:
        write(json.dumps({
            "ok": True, "protocol": PROTOCOL,
            "workers": len(queue._threads),
        }))
    for line in lines:
        if len(line) > MAX_LINE_BYTES:
            write(json.dumps({
                "ok": False,
                "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
            }))
            continue
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError) as error:
            write(json.dumps({"ok": False, "error": f"bad request: {error}"}))
            continue
        response = handle_request(queue, request)
        write(json.dumps(response))
        if request.get("op") == "shutdown" and response.get("ok"):
            return "shutdown"
    return "eof"


def serve_stdio(
    queue: JobQueue,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> None:
    """Speak the protocol over stdin/stdout (the default serve mode)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def write(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    serve_lines(queue, stdin, write)


def serve_socket(queue: JobQueue, path: str) -> None:
    """Speak the protocol on a Unix socket, one thread per connection.

    Every connection shares the one queue (and therefore the caches and
    coalescing map), which is the point: concurrent clients submitting
    the same circuit coalesce into one execution.  A ``shutdown``
    request from any connection stops the server.
    """
    stop = threading.Event()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            def write(text: str) -> None:
                try:
                    self.wfile.write(text.encode() + b"\n")
                    self.wfile.flush()
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass

            lines = (raw.decode(errors="replace") for raw in self.rfile)
            # EOF just closes this connection; an acknowledged
            # shutdown op stops the whole server.  A peer that vanishes
            # mid-request closes its own connection and nothing else.
            try:
                outcome = serve_lines(queue, lines, write)
            except (ConnectionError, OSError):  # pragma: no cover
                return
            if outcome == "shutdown":
                stop.set()

    class Server(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True
        allow_reuse_address = True

    with Server(path, Handler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            stop.wait()
        finally:
            server.shutdown()


def connect_socket(path: str) -> socket.socket:
    """Client helper: a connected Unix-socket stream to a server."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(path)
    return client
