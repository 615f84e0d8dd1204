"""Unix-socket JSON-RPC for the placement engine.

Wire format: newline-delimited JSON objects.  Requests are
``{"id": <any>, "method": <name>, "params": {...}}``; responses echo
the id with either ``{"result": ...}`` or
``{"error": {"code": <int>, "message": <str>}}``.

Methods:
    ``submit``    params: a job-request document (+ optional
                  ``netlist_hash``); result: ``{"job_id": ...}``
    ``status``    params: ``{"job_id"}``; result: the job document
    ``list``      result: ``{"jobs": [...]}``
    ``cancel``    params: ``{"job_id"}``; result: the job document
    ``resume``    params: ``{"job_id"}``; result: the job document
    ``result``    params: ``{"job_id"}``; result: summary + artifact
                  paths of a ``done`` job
    ``stats``     result: service counters + per-job liveness
    ``shutdown``  result: ``{"ok": true}``; the server then exits

The server is a single-threaded ``selectors`` loop — job execution
happens on the scheduler's backend, so the RPC thread only ever does
bookkeeping, and all engine calls are serialized without extra locks.

This is the **only** module in ``src/repro`` that may import
``socket``/``selectors`` (lint rule RPL014): every other layer talks
to the service through :class:`ServiceClient` or the engine API.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import get_logger
from repro.service.engine import PlacementEngine
from repro.service.jobstore import (JobError, JobRequest,
                                    JobStateError)

__all__ = ["RpcError", "RpcServer", "ServiceClient"]

_log = get_logger(__name__)

#: JSON-RPC-style error codes used on the wire.
_INVALID_REQUEST = -32600
_METHOD_NOT_FOUND = -32601
_INVALID_PARAMS = -32602
_JOB_ERROR = -32000


class RpcError(RuntimeError):
    """A structured RPC failure (server- or client-side).

    Attributes:
        code: the numeric wire code.
        message: the human-readable description.
    """

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = int(code)
        self.message = message


class RpcServer:
    """Serves a :class:`PlacementEngine` over a unix socket.

    Args:
        engine: the engine to expose (its scheduler thread should be
            started by the caller; the server never pumps).
        socket_path: filesystem path of the unix socket to bind.
    """

    def __init__(self, engine: PlacementEngine,
                 socket_path: Union[str, Path]) -> None:
        self.engine = engine
        self.socket_path = str(socket_path)
        self._shutdown = False

    # -- method dispatch -----------------------------------------------
    def handle(self, method: str,
               params: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one RPC method; returns its result document."""
        try:
            if method == "submit":
                return self._handle_submit(params)
            if method == "status":
                return self.engine.status(self._job_id(params))
            if method == "list":
                return {"jobs": self.engine.list_jobs()}
            if method == "cancel":
                return self.engine.cancel(self._job_id(params))
            if method == "resume":
                return self.engine.resume(self._job_id(params))
            if method == "result":
                return self._handle_result(params)
            if method == "stats":
                return {"counters": self.engine.counters(),
                        "liveness": self.engine.scheduler.liveness()}
            if method == "shutdown":
                self._shutdown = True
                return {"ok": True}
        except RpcError:
            raise
        except (JobStateError, JobError, ValueError) as exc:
            raise RpcError(_JOB_ERROR, str(exc)) from exc
        raise RpcError(_METHOD_NOT_FOUND, f"unknown method {method!r}")

    @staticmethod
    def _job_id(params: Dict[str, Any]) -> str:
        job_id = params.get("job_id")
        if not isinstance(job_id, str):
            raise RpcError(_INVALID_PARAMS, "missing string 'job_id'")
        return job_id

    def _handle_submit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        digest = params.pop("netlist_hash", None)
        if digest is not None and not isinstance(digest, str):
            raise RpcError(_INVALID_PARAMS,
                           "'netlist_hash' must be a string")
        request = JobRequest.from_dict(params)
        job_id = self.engine.submit(request, netlist_digest=digest)
        return {"job_id": job_id}

    def _handle_result(self, params: Dict[str, Any]) -> Dict[str, Any]:
        document = self.engine.status(self._job_id(params))
        if document["state"] != "done":
            raise RpcError(_JOB_ERROR,
                           f"{document['id']} is {document['state']}, "
                           f"not done")
        result_dir = self.engine.store.result_dir(str(document["id"]))
        return {"id": document["id"],
                "cache": document["cache"],
                "result": document["result"],
                "manifest_path": document["manifest_path"],
                "placement_path": str(result_dir / "placement.npz")}

    # -- socket loop ---------------------------------------------------
    def serve_forever(self) -> None:
        """Accept and serve connections until ``shutdown`` arrives.

        Unlinks a stale socket path on bind and removes the socket on
        exit.  Intended to run on the main thread of ``repro serve``
        while the engine's scheduler thread pumps jobs.
        """
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        selector = selectors.DefaultSelector()
        try:
            server.bind(self.socket_path)
            server.listen()
            server.setblocking(False)
            selector.register(server, selectors.EVENT_READ, data=None)
            buffers: Dict[socket.socket, bytes] = {}
            while not self._shutdown:
                for key, _ in selector.select(timeout=0.2):
                    if key.data is None:
                        conn, _addr = server.accept()
                        conn.setblocking(False)
                        selector.register(conn, selectors.EVENT_READ,
                                          data="conn")
                        buffers[conn] = b""
                    else:
                        conn = key.fileobj  # type: ignore[assignment]
                        self._pump_connection(conn, selector, buffers)
        finally:
            selector.close()
            server.close()
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass

    def _pump_connection(self, conn: socket.socket,
                         selector: selectors.BaseSelector,
                         buffers: Dict[socket.socket, bytes]) -> None:
        try:
            chunk = conn.recv(65536)
        except (ConnectionResetError, BlockingIOError):
            chunk = b""
        if not chunk:
            selector.unregister(conn)
            buffers.pop(conn, None)
            conn.close()
            return
        buffers[conn] += chunk
        while b"\n" in buffers[conn]:
            line, buffers[conn] = buffers[conn].split(b"\n", 1)
            if not line.strip():
                continue
            response = self._respond(line)
            conn.setblocking(True)
            try:
                conn.sendall(json.dumps(response).encode("utf-8")
                             + b"\n")
            except OSError:
                selector.unregister(conn)
                buffers.pop(conn, None)
                conn.close()
                return
            finally:
                if conn.fileno() >= 0:
                    conn.setblocking(False)
            if self._shutdown:
                return

    def _respond(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise RpcError(_INVALID_REQUEST,
                               "request must be a JSON object")
            request_id = request.get("id")
            method = request.get("method")
            if not isinstance(method, str):
                raise RpcError(_INVALID_REQUEST,
                               "missing string 'method'")
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise RpcError(_INVALID_PARAMS,
                               "'params' must be an object")
            return {"id": request_id,
                    "result": self.handle(method, dict(params))}
        except RpcError as exc:
            return {"id": request_id,
                    "error": {"code": exc.code,
                              "message": exc.message}}
        except json.JSONDecodeError as exc:
            return {"id": request_id,
                    "error": {"code": _INVALID_REQUEST,
                              "message": f"invalid JSON: {exc}"}}


class ServiceClient:
    """Blocking client for the unix-socket RPC API.

    Args:
        socket_path: path of a listening :class:`RpcServer` socket.

    Example:
        >>> with ServiceClient("/tmp/repro.sock") as client:   # doctest: +SKIP
        ...     job_id = client.submit(request_doc)["job_id"]
        ...     client.status(job_id)["state"]
    """

    def __init__(self, socket_path: Union[str, Path]) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(self.socket_path)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def call(self, method: str, **params: Any) -> Any:
        """Issue one RPC call; returns the result payload.

        Raises:
            RpcError: the server answered with an error document.
        """
        self._next_id += 1
        request = {"id": self._next_id, "method": method,
                   "params": params}
        self._file.write(json.dumps(request).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise RpcError(_INVALID_REQUEST,
                           "server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not isinstance(response, dict):
            raise RpcError(_INVALID_REQUEST,
                           "malformed response from server")
        if "error" in response and response["error"] is not None:
            error = response["error"]
            raise RpcError(int(error.get("code", _JOB_ERROR)),
                           str(error.get("message", "unknown error")))
        return response.get("result")

    # -- convenience wrappers ------------------------------------------
    def submit(self, request: Dict[str, Any],
               netlist_hash: Optional[str] = None) -> Dict[str, Any]:
        """Submit a job-request document; returns ``{"job_id": ...}``."""
        params = dict(request)
        if netlist_hash is not None:
            params["netlist_hash"] = netlist_hash
        result = self.call("submit", **params)
        assert isinstance(result, dict)
        return result

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current document."""
        result = self.call("status", job_id=job_id)
        assert isinstance(result, dict)
        return result

    def list_jobs(self) -> Any:
        """All job documents."""
        result = self.call("list")
        assert isinstance(result, dict)
        return result["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation of a job."""
        result = self.call("cancel", job_id=job_id)
        assert isinstance(result, dict)
        return result

    def resume(self, job_id: str) -> Dict[str, Any]:
        """Requeue a cancelled/failed job."""
        result = self.call("resume", job_id=job_id)
        assert isinstance(result, dict)
        return result

    def result(self, job_id: str) -> Dict[str, Any]:
        """Result summary and artifact paths of a ``done`` job."""
        result = self.call("result", job_id=job_id)
        assert isinstance(result, dict)
        return result

    def stats(self) -> Dict[str, Any]:
        """Service counters and per-job liveness."""
        result = self.call("stats")
        assert isinstance(result, dict)
        return result

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to exit its accept loop."""
        result = self.call("shutdown")
        assert isinstance(result, dict)
        return result

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
