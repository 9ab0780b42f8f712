"""Clients for a running farm daemon.

Two addressing modes over the same JSON-lines protocol (see
:mod:`repro.farm.server`):

* :class:`FarmClient` — addressed by *farm root*: reads the published
  ``daemon.json`` endpoint, so local tooling never touches port
  numbers.  The submit/status half of the control protocol.
* :class:`PeerClient` — addressed by *host:port*: the transport of a
  TCP corpus pull (:class:`~repro.dist.sync.RemoteSource`).  A daemon
  binds ``127.0.0.1``, so the host is this machine; the port is the
  one in the other daemon's ``daemon.json``.

Both keep one pooled connection per client: requests reuse the channel
instead of paying a TCP dial per call.  A failure on a *reused* socket
— the peer restarted, or an idle connection timed out — reconnects
once and retries transparently; a failure on a fresh connection still
surfaces as :class:`~repro.errors.FarmError`, exactly as a one-shot
client would see it.  ``requests`` / ``bytes_sent`` /
``bytes_received`` / ``reconnects`` counters make the round-trip and
bytes-on-wire cost observable (``tools/dist_smoke.py`` asserts on
them).

Typed rejections come back as the same exceptions the daemon raised
locally — saturation as
:class:`~repro.farm.queue.QueueSaturatedError` with its ``retry_after``
hint intact, a locked store as
:class:`~repro.farm.locks.StoreLockedError`-shaped
:class:`~repro.errors.FarmError`, an unknown job id as
:class:`~repro.farm.queue.UnknownJobError` — so the CLI's one-line
error reporting needs no special cases for remote vs local.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import FarmError
from repro.farm import server as farm_server
from repro.farm import wire
from repro.farm.queue import QueueSaturatedError, UnknownJobError

__all__ = ["FarmClient", "PeerClient"]


class _ChannelClosed(ConnectionError):
    """The peer closed the channel at a message boundary (clean EOF)."""


def _raise_typed(response):
    """Return an ok response, or re-raise the daemon's typed rejection
    with its original message (the wire carries the text, not the
    constructor args)."""
    if response.get("ok"):
        return response
    kind = response.get("kind")
    message = response.get("error", "farm request failed")
    if kind == "saturated":
        error = QueueSaturatedError.__new__(QueueSaturatedError)
        error.retry_after = float(response.get("retry_after", 1.0))
        error.capacity = 0
        FarmError.__init__(error, message)
        raise error
    if kind == "unknown-job":
        error = UnknownJobError.__new__(UnknownJobError)
        FarmError.__init__(error, message)
        raise error
    raise FarmError(message)


class _ChannelClient:
    """Shared pooled-connection machinery (dialing is the subclass's)."""

    def __init__(self):
        self._sock = None
        self._rfile = None
        self._channel_lock = threading.Lock()
        #: Wire accounting, cumulative over the client's lifetime.
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0

    # Subclasses: _dial() -> connected socket (FarmError on failure),
    # _where() -> address string for error messages.

    def close(self):
        """Drop the pooled connection (the next request redials)."""
        sock, self._sock = self._sock, None
        rfile, self._rfile = self._rfile, None
        for handle in (rfile, sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass

    def _connect(self):
        self._sock = self._dial()
        self._rfile = self._sock.makefile("rb")

    def _exchange(self, payload):
        data = wire.dump_message(payload)
        self._sock.sendall(data)
        response, received = wire.read_message(self._rfile)
        if response is None:
            raise _ChannelClosed("connection closed before the reply")
        self.requests += 1
        self.bytes_sent += len(data)
        self.bytes_received += received
        return response

    def _request(self, payload):
        with self._channel_lock:
            fresh = self._sock is None
            if fresh:
                self._connect()
            try:
                response = self._exchange(payload)
            except OSError as error:
                self.close()
                if fresh:
                    raise self._exchange_error(error) from None
                # A pooled socket can go stale between requests (peer
                # restarted, idle timeout): reconnect once and retry.
                # A failure on the fresh retry is a real mid-request
                # failure and surfaces like any other.
                self.reconnects += 1
                self._connect()
                try:
                    response = self._exchange(payload)
                except OSError as retry_error:
                    self.close()
                    raise self._exchange_error(retry_error) from None
        return _raise_typed(response)

    def _exchange_error(self, error):
        if isinstance(error, _ChannelClosed):
            return FarmError(
                f"farm daemon at {self._where()} closed the connection "
                "without answering")
        return FarmError(
            f"{self._describe()} dropped the connection "
            f"mid-request ({error})")


class FarmClient(_ChannelClient):
    """Farm-root-addressed client (endpoint discovered via daemon.json).

    The pooled connection re-reads the endpoint file on reconnect, so a
    daemon restart — new pid, new port — is transparent to a long-lived
    client as long as the new daemon publishes before the next request.
    """

    def __init__(self, root, timeout=10.0):
        super().__init__()
        self.root = root
        self.timeout = timeout

    def _dial(self):
        return farm_server.connect(self.root, timeout=self.timeout)

    def _where(self):
        return self.root

    def _describe(self):
        return f"farm daemon at {self.root}"

    def ping(self):
        return self._request({"cmd": "ping"})

    def submit(self, spec):
        """Submit a job spec; returns the created job record (dict)."""
        return self._request({"cmd": "submit", "spec": spec})["job"]

    def status(self, job_id=None):
        if job_id is not None:
            return self._request({"cmd": "status", "job_id": job_id})["job"]
        return self._request({"cmd": "status"})["jobs"]

    def counts(self):
        return self._request({"cmd": "counts"})["counts"]

    def drain(self):
        return self._request({"cmd": "drain"})

    def wait(self, job_id, timeout=120.0, poll=0.2):
        """Block until a job finishes; returns its final record.

        Raises :class:`FarmError` if the job ends ``failed`` or the
        timeout expires — a stuck farm should fail loudly in scripts.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["status"] == "done":
                return job
            if job["status"] == "failed":
                raise FarmError(
                    f"job {job_id} failed: {job.get('error')}")
            if time.monotonic() >= deadline:
                raise FarmError(
                    f"timed out after {timeout:.0f}s waiting for "
                    f"{job_id} (status: {job['status']})")
            time.sleep(poll)


class PeerClient(_ChannelClient):
    """Host:port-addressed client for the corpus-pull verbs.

    The transport behind :class:`~repro.dist.sync.RemoteSource`.  Same
    pooled channel and typed errors as :class:`FarmClient`; only the
    addressing differs.
    """

    def __init__(self, host, port, timeout=10.0):
        super().__init__()
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)

    def _dial(self):
        # A reset/timeout mid-request must surface as the same typed
        # error as a refused connection: a pull treats FarmError as
        # "this peer failed", and a raw OSError would crash it instead.
        try:
            return socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as error:
            raise FarmError(
                f"peer {self._where()} is not answering "
                f"({error})") from None

    def _where(self):
        return f"{self.host}:{self.port}"

    def _describe(self):
        return f"peer {self._where()}"

    def ping(self):
        return self._request({"cmd": "ping"})

    def store_manifest(self, store, have=None):
        payload = {"cmd": "store-manifest", "store": store}
        if have is not None:
            # Sorted for a deterministic wire image (and so the request
            # bytes are reproducible in tests and traces).
            payload["have"] = sorted(str(h) for h in have)
        return self._request(payload)

    def store_entry(self, store, entry_hash):
        return self._request({"cmd": "store-entry", "store": store,
                              "hash": entry_hash})

    def store_entries(self, store, hashes):
        """Fetch a batch of content-addressed inputs in one round-trip."""
        return self._request({"cmd": "store-entries", "store": store,
                              "hashes": [str(h) for h in hashes]})
