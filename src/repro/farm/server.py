"""JSON-lines TCP front door for a :class:`~repro.farm.daemon.FarmDaemon`.

Persistent request channel: a client sends any number of JSON-object
requests, one per line, on one connection; the server answers each with
one message in order, and the channel stays open until the client
closes it (one-shot clients that close after the first exchange keep
working unchanged).  Array payloads ride as binary frames after the
JSON line — see :mod:`repro.farm.wire` for the framing.  Loopback
only, ephemeral port; the bound endpoint is published atomically to
``<root>/daemon.json`` so clients discover it by farm root, not by
port number::

    {"host": "127.0.0.1", "port": 40123, "pid": 12345}

Commands: ``ping``, ``submit`` (spec → job record, or a typed
rejection), ``status`` (all jobs or one ``job_id``), ``counts``, and
``drain`` (graceful shutdown) — plus the corpus-pull verbs from
docs/DISTRIBUTED.md: ``store-manifest`` / ``store-entry`` /
``store-entries`` (with an optional ``have`` delta filter and batched
fetch; these only read, and a malformed store name, hash list or
``have`` filter is a typed rejection).  Any other ``cmd`` is an
``unknown command`` rejection.
Errors travel as ``{"ok": false, "error": ..., "kind": ...}`` with
``kind`` naming the error class so the client re-raises the right
exception — saturation keeps its ``retry_after`` hint across the wire.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading

from repro.errors import FarmError, ReproError
from repro.farm import wire
from repro.farm.locks import StoreLockedError, _is_pid, _pid_alive
from repro.farm.queue import QueueSaturatedError, UnknownJobError
from repro.utils.atomicio import atomic_write_json

__all__ = ["FarmServer", "ENDPOINT_NAME"]

ENDPOINT_NAME = "daemon.json"

_HOST = "127.0.0.1"


def _error_response(error):
    response = {"ok": False, "error": str(error)}
    if isinstance(error, QueueSaturatedError):
        response["kind"] = "saturated"
        response["retry_after"] = error.retry_after
    elif isinstance(error, StoreLockedError):
        response["kind"] = "locked"
    elif isinstance(error, UnknownJobError):
        response["kind"] = "unknown-job"
    else:
        response["kind"] = "error"
    return response


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        # Serve requests until the client closes the channel.  Typed
        # rejections (saturated, locked, unknown-job) are answers, not
        # channel failures — the connection stays usable after them.
        try:
            while True:
                try:
                    request, _ = wire.read_message(self.rfile)
                except FarmError as error:
                    # The framing itself is broken; answer once and
                    # hang up — resync on a corrupt stream is hopeless.
                    self.wfile.write(wire.dump_message(_error_response(
                        FarmError(f"bad request: {error}"))))
                    return
                if request is None:
                    return      # clean EOF: client closed the channel
                try:
                    response = self.server.dispatch(request)
                except ReproError as error:
                    response = _error_response(error)
                self.wfile.write(wire.dump_message(response))
        except OSError:
            return              # client vanished mid-exchange


class FarmServer(socketserver.ThreadingTCPServer):
    """Serve one daemon's control socket; publishes the endpoint file."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, daemon):
        self.farm = daemon
        self.endpoint_path = os.path.join(daemon.root, ENDPOINT_NAME)
        self._drain_requested = threading.Event()
        super().__init__((_HOST, 0), _Handler)
        atomic_write_json(self.endpoint_path, {
            "host": _HOST,
            "port": self.server_address[1],
            "pid": os.getpid(),
        })

    @property
    def port(self):
        return self.server_address[1]

    def request_drain(self):
        """Ask the serve loop to shut down gracefully (signal-safe)."""
        self._drain_requested.set()

    def dispatch(self, request):
        cmd = request.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "counts": self.farm.counts()}
        if cmd == "submit":
            job = self.farm.submit(request.get("spec") or {})
            return {"ok": True, "job": job.to_dict()}
        if cmd == "status":
            if request.get("job_id") is not None:
                return {"ok": True,
                        "job": self.farm.status(request["job_id"])}
            return {"ok": True, "jobs": self.farm.status()}
        if cmd == "counts":
            return {"ok": True, "counts": self.farm.counts()}
        if cmd == "drain":
            self._drain_requested.set()
            return {"ok": True, "draining": True}
        # -- corpus-pull verbs (repro.dist.sync; docs/DISTRIBUTED.md) -----
        if cmd == "store-manifest":
            reply = self.farm.store_manifest(request.get("store"),
                                             have=request.get("have"))
            return {"ok": True, **reply}
        if cmd == "store-entry":
            reply = self.farm.store_entry(request.get("store"),
                                          request.get("hash"))
            return {"ok": True, **reply}
        if cmd == "store-entries":
            reply = self.farm.store_entries(request.get("store"),
                                            request.get("hashes"))
            return {"ok": True, **reply}
        raise FarmError(f"unknown command {cmd!r}")

    def serve_until_drained(self, poll=0.1):
        """Run the accept loop until a ``drain`` command arrives, then
        drain the daemon and clean up the endpoint file."""
        thread = threading.Thread(target=self.serve_forever,
                                  kwargs={"poll_interval": poll},
                                  daemon=True)
        thread.start()
        try:
            self._drain_requested.wait()
        finally:
            self.farm.drain()
            self.shutdown()
            thread.join()
            self.close()

    def close(self):
        self.server_close()
        try:
            os.unlink(self.endpoint_path)
        except FileNotFoundError:
            pass


def read_endpoint(root):
    """Load ``<root>/daemon.json`` if it names a live process.

    ``None`` when there is no daemon to reach: no file, a torn one, a
    garbled one (not UTF-8 JSON, not an object, a ``pid`` that is not an
    int in ``1..MAX_PID``, a ``host`` that is not a string or a ``port``
    outside ``1..65535``), or a stale one from a killed daemon.
    """
    path = os.path.join(os.path.abspath(root), ENDPOINT_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            endpoint = json.load(handle)
    except (OSError, ValueError, RecursionError):  # UnicodeDecodeError too
        return None
    if not (isinstance(endpoint, dict) and _is_pid(endpoint.get("pid"))
            and isinstance(endpoint.get("host"), str)
            and type(endpoint.get("port")) is int
            and 1 <= endpoint["port"] <= 65535
            and _pid_alive(endpoint["pid"])):
        return None
    return endpoint


def connect(root, timeout=5.0):
    """TCP-connect to the daemon serving ``root``; socket or FarmError."""
    endpoint = read_endpoint(root)
    if endpoint is None:
        raise FarmError(
            f"no farm daemon running at {root} "
            "(start one with `repro serve --root ...`)")
    try:
        return socket.create_connection(
            (endpoint["host"], endpoint["port"]), timeout=timeout)
    except OSError as error:
        raise FarmError(
            f"farm daemon at {root} is not answering "
            f"({endpoint['host']}:{endpoint['port']}: {error})") from None
