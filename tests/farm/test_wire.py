"""Wire framing and pooled channels: binary frames, typed errors for
malformed messages, payloads and store-verb requests, and
reconnect-on-stale-socket."""

from __future__ import annotations

import io
import json
import os
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from repro.corpus import CorpusStore
from repro.dist import decode_array, decode_coverage
from repro.errors import FarmError
from repro.farm import FarmClient, PeerClient
from repro.farm.wire import (MAX_FRAME, READ_CHUNK, Blob, as_bytes,
                             dump_message, read_message)


def _roundtrip(message):
    data = dump_message(message)
    got, n = read_message(io.BytesIO(data))
    assert n == len(data)
    return got


# -- framing ------------------------------------------------------------------
def test_blobs_resolve_through_frames():
    message = {"a": Blob(b"12345"), "n": {"b": [Blob(b"xy"), 7]},
               "s": "text", "z": None}
    got = _roundtrip(message)
    assert as_bytes(got["a"]) == b"12345"
    assert as_bytes(got["n"]["b"][0]) == b"xy"
    assert got["n"]["b"][1] == 7
    assert got["s"] == "text" and got["z"] is None
    # Framed blobs come back as real bytes, ready for np.load et al.
    assert isinstance(got["a"], bytes)


def test_frames_carry_raw_bytes_and_plain_messages_stay_one_line():
    payload = bytes(range(256)) * 16    # 4 KiB, no encoding overhead
    data = dump_message({"data": Blob(payload)})
    line, _, rest = data.partition(b"\n")
    assert json.loads(line) == {"data": {"__frame__": 0},
                                "_frames": [len(payload)]}
    assert rest == payload
    # No blob, no frame table: ping/submit/status are one JSON line.
    assert dump_message({"cmd": "ping"}) == b'{"cmd": "ping"}\n'


def test_truncated_frame_is_an_error_not_eof():
    data = dump_message({"d": Blob(b"abcdef")})
    with pytest.raises(FarmError, match="truncated"):
        read_message(io.BytesIO(data[:-3]))


def test_frames_longer_than_a_read_chunk_arrive_whole():
    payload = os.urandom(READ_CHUNK) * 2 + b"tail"
    assert as_bytes(_roundtrip({"d": Blob(payload)})["d"]) == payload


def test_declared_frame_allocates_only_the_bytes_that_arrive():
    """A one-line header declaring a MAX_FRAME frame, then 10 bytes and
    a close: the reader must fail on the truncation without first
    allocating the declared gigabyte."""
    sender, receiver = socket.socketpair()
    with sender, receiver, receiver.makefile("rb") as rfile:
        sender.sendall(b'{"_frames": [%d], "d": {"__frame__": 0}}\n'
                       % MAX_FRAME + b"x" * 10)
        sender.shutdown(socket.SHUT_WR)
        tracemalloc.start()
        try:
            with pytest.raises(FarmError, match="truncated"):
                read_message(rfile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak} bytes"


def test_clean_eof_is_a_closed_channel():
    assert read_message(io.BytesIO(b"")) == (None, 0)


def test_non_object_message_rejected():
    with pytest.raises(FarmError, match="expected an object"):
        read_message(io.BytesIO(b"[1, 2]\n"))


#: The header cap the in-process checks read under; "oversized" exceeds
#: it, every other case fits.
_HEADER_CAP = 1 << 20

#: Malformed headers, each with the message text its FarmError carries.
MALFORMED_HEADERS = {
    "frames-not-a-list": (b'{"_frames": 5}\n', "frame table"),
    "frame-length-not-int": (b'{"_frames": ["x"]}\n', "frame table"),
    "frame-length-bool": (b'{"_frames": [true]}\nx', "frame table"),
    "frame-length-negative": (b'{"_frames": [-1]}\n', "frame table"),
    "frame-length-over-cap": (
        b'{"_frames": [%d]}\n' % (MAX_FRAME + 1), "frame table"),
    "frame-ref-missing": (
        b'{"_frames": [1], "a": {"__frame__": 7}}\nx', "frame reference"),
    "frame-ref-negative": (
        b'{"_frames": [1], "a": {"__frame__": -1}}\nx', "frame reference"),
    "frame-ref-not-int": (
        b'{"_frames": [1], "a": {"__frame__": "x"}}\nx', "frame reference"),
    "bad-json": (b'{"cmd": \n', "bad wire header"),
    "bad-utf8": (b'{"cmd": "\xff"}\n', "bad wire header"),
    "int-too-long": (b'{"cmd": "ping", "x": ' + b"1" * 5000 + b'}\n',
                     "bad wire header"),
    "nested-too-deep": (
        b'{"cmd": "ping", "x": ' + b"[" * 200000 + b"]" * 200000 + b'}\n',
        "bad wire header"),
    # Deeper than the interpreter's recursion limit (1000): whichever of
    # the JSON decoder and the frame resolver gives up first, the answer
    # is typed.
    "frames-nested-too-deep": (
        b'{"_frames": [1], "x": ' + b"[" * 1200 + b"]" * 1200 + b'}\nx',
        "bad wire header"),
    "oversized": (b'{"cmd": "' + b"x" * _HEADER_CAP + b'"}\n',
                  f"{_HEADER_CAP}-byte cap"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_a_farm_error(name):
    data, match = MALFORMED_HEADERS[name]
    with pytest.raises(FarmError, match=match):
        read_message(io.BytesIO(data), max_line=_HEADER_CAP)


def _npz_bytes():
    buffer = io.BytesIO()
    np.savez(buffer, a=np.zeros(3))
    return buffer.getvalue()


def _npy_bytes(x):
    buffer = io.BytesIO()
    np.save(buffer, x)
    return buffer.getvalue()


#: Payloads that are not what they claim to be, with their decoder.
MALFORMED_PAYLOADS = {
    "array-null": (decode_array, None),
    "array-text": (decode_array, "not base64!"),
    "array-int": (decode_array, 7),
    "array-frame-ref-without-frames": (decode_array, {"__frame__": 0}),
    "array-not-npy": (decode_array, Blob(b"not an npy array")),
    "array-npz": (decode_array, Blob(_npz_bytes())),
    "array-text-array": (decode_array,
                         Blob(_npy_bytes(np.array(["a", "b"])))),
    "array-truncated-magic": (decode_array, Blob(b"\x93NUMPY")),
    "coverage-not-npz": (decode_coverage, Blob(b"junk")),
    "coverage-npy": (decode_coverage, Blob(b"\x93NUMPY\x01")),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PAYLOADS))
def test_malformed_payload_is_a_farm_error(name):
    decode, payload = MALFORMED_PAYLOADS[name]
    with pytest.raises(FarmError, match="payload"):
        decode(payload)


# -- pooled channels ----------------------------------------------------------
def _one_shot_server():
    """A server that answers exactly one request per connection, then
    closes it — the shape of a peer whose idle connections die between
    requests.  Returns ``(port, served: list, stop)``."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    served = []

    def serve():
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as rfile:
                request, _ = read_message(rfile)
                if request is None:
                    continue
                served.append(request)
                conn.sendall(dump_message({"ok": True,
                                           "echo": request.get("cmd")}))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return sock.getsockname()[1], served, sock.close


def test_stale_pooled_connection_reconnects_transparently():
    """Satellite regression: a peer that drops the pooled connection
    between requests (restart, idle timeout) must cost one transparent
    reconnect, not a FarmError."""
    port, served, stop = _one_shot_server()
    try:
        client = PeerClient("127.0.0.1", port, timeout=5.0)
        assert client.ping()["echo"] == "ping"
        # The server closed the channel after answering; the next
        # request hits a clean EOF on the reused socket and must retry
        # on a fresh connection.
        assert client.ping()["echo"] == "ping"
        assert client.reconnects == 1
        assert len(served) == 2
        assert client.requests == 2     # failed exchanges don't count
    finally:
        stop()


def _serve_one(sock, misbehave):
    misbehave(sock.accept()[0])


def _close_without_answering(conn):
    conn.recv(65536)
    conn.close()


def _reset_mid_request(conn):
    # Consume the request so the client is committed (blocked reading
    # the answer), then close with SO_LINGER zero, which sends RST: the
    # in-flight read fails with ECONNRESET rather than a clean EOF.
    conn.recv(65536)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    conn.close()


def _first_exchange_fails(misbehave, message):
    """Bind a loopback port and hand its first connection to
    ``misbehave`` on a thread (with ``misbehave`` None the port is
    bound but never listening, so the connect is refused at once); a
    fresh ``PeerClient``'s first ping must raise FarmError matching
    ``message`` without trying a reconnect."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    thread = None
    if misbehave is not None:
        sock.listen(1)
        thread = threading.Thread(target=_serve_one,
                                  args=(sock, misbehave), daemon=True)
        thread.start()
    try:
        client = PeerClient("127.0.0.1", port, timeout=5.0)
        with pytest.raises(FarmError, match=message):
            client.ping()
        assert client.reconnects == 0
        if thread is not None:
            thread.join(timeout=5)
    finally:
        sock.close()


def test_fresh_connection_failure_still_raises(tmp_path):
    """Reconnect-once is only for reused sockets: a peer that fails the
    very first exchange surfaces as FarmError, same as before pooling."""
    _first_exchange_fails(_close_without_answering, "closed the connection")


def test_unreachable_peer_raises_farm_error():
    """A closed port is one FarmError naming the peer, not a raw
    ConnectionRefusedError."""
    _first_exchange_fails(None, "not answering")


def test_peer_reset_mid_request_raises_farm_error():
    """A peer that accepts the connection and then dies mid-request
    (RST, not a clean close) is a FarmError, not a raw
    ConnectionResetError."""
    _first_exchange_fails(_reset_mid_request,
                          "dropped the connection mid-request")


def test_farm_client_survives_daemon_restart(tmp_path, model_source):
    """FarmClient re-reads the endpoint file on reconnect, so a daemon
    restart — new pid, new port — is invisible to a pooled client."""
    from repro.farm import FarmDaemon, FarmServer

    def start(root):
        daemon = FarmDaemon(root, workers=1, model_source=model_source)
        server = FarmServer(daemon)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        return daemon, server, thread

    root = str(tmp_path / "farm")
    daemon, server, thread = start(root)
    client = FarmClient(root, timeout=5.0)
    try:
        assert client.ping()["ok"]
        server.shutdown()
        thread.join()
        server.close()
        daemon.drain(timeout=30.0)
        # An in-process "restart" leaves the old handler thread alive on
        # the accepted socket; a real daemon death severs it.  Simulate
        # the severing so the pooled socket actually goes stale.
        client._sock.shutdown(socket.SHUT_RDWR)
        daemon, server, thread = start(root)
        assert client.ping()["ok"]      # re-reads daemon.json: new port
        assert client.reconnects == 1
    finally:
        server.shutdown()
        thread.join()
        server.close()
        daemon.drain(timeout=30.0)



_LIVE = {"host": "127.0.0.1", "port": 1}

GARBLED_ENDPOINTS = {
    "no-pid": json.dumps(_LIVE).encode(),
    "pid-zero": json.dumps(dict(_LIVE, pid=0)).encode(),
    "pid-minus-one": json.dumps(dict(_LIVE, pid=-1)).encode(),
    "pid-true": json.dumps(dict(_LIVE, pid=True)).encode(),
    "list": b"[1, 2]",
    "pid-overflows": b'{"host": "127.0.0.1", "port": 1, "pid": 1e400}',
    "not-utf8": b'{"host": "\xff", "port": 1, "pid": 1}',
}


@pytest.mark.parametrize("case", sorted(GARBLED_ENDPOINTS))
def test_garbled_endpoint_file_reads_as_no_daemon(tmp_path, case):
    """A ``daemon.json`` that cannot name a live daemon is no daemon: a
    client gets the typed error instead of whatever a bad field raises,
    and pid 0, -1 or true never reach ``os.kill`` as a live process."""
    from repro.farm.server import ENDPOINT_NAME, connect, read_endpoint
    with open(tmp_path / ENDPOINT_NAME, "wb") as handle:
        handle.write(GARBLED_ENDPOINTS[case])
    assert read_endpoint(tmp_path) is None
    with pytest.raises(FarmError, match="no farm daemon running"):
        connect(tmp_path)
    with pytest.raises(FarmError, match="no farm daemon running"):
        FarmClient(tmp_path, timeout=1.0).ping()


# -- a live server answers malformed input ------------------------------------
@pytest.fixture
def live_server(tmp_path, model_source):
    from repro.farm import FarmDaemon, FarmServer
    daemon = FarmDaemon(tmp_path / "farm", workers=1,
                        model_source=model_source)
    server = FarmServer(daemon)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.close()
        daemon.drain(timeout=30.0)


def _ask(channel, data):
    sock, rfile = channel
    sock.sendall(data)
    reply, _ = read_message(rfile)
    return reply


def _channel(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    return sock, sock.makefile("rb")


#: A path outside the store's ``inputs/`` directory, spelled as a hash.
_TRAVERSAL = "../" + "0" * 64

#: An input file holding garbage, under a well-formed hash.
_GARBAGE = "1" * 64

#: Requests a verb must refuse.
MALFORMED_REQUESTS = {
    "entries-hashes-int": {"cmd": "store-entries", "store": "s",
                           "hashes": 7},
    "manifest-have-int": {"cmd": "store-manifest", "store": "s",
                          "have": 5},
    "entries-hash-traversal": {"cmd": "store-entries", "store": "s",
                               "hashes": [_TRAVERSAL]},
    "entry-hash-traversal": {"cmd": "store-entry", "store": "s",
                             "hash": _TRAVERSAL},
    "manifest-store-traversal": {"cmd": "store-manifest",
                                 "store": "../outside"},
    "entries-garbage-npy": {"cmd": "store-entries", "store": "s",
                            "hashes": [_GARBAGE]},
    # A request from a client that still asks for peer gossip: the verb
    # is gone, so it is an unknown command like any other.
    "peers-unknown-command": {"cmd": "peers"},
    # A request from a driver that still fans shards out over RPC: the
    # verb is gone, so it is an unknown command like any other.
    "run-shard-unknown-command": {
        "cmd": "run-shard", "dataset": "mnist", "ascent": "vanilla",
        "dtype": "float32", "trackers": [],
        "shard": {"shard_index": 0, "indices": [0], "entropy": 0,
                  "spawn_key": [0], "pool_size": 4}},
    "submit-seed-text": {"cmd": "submit",
                         "spec": {"store": "s", "seed": "abc"}},
    "submit-seed-list": {"cmd": "submit", "spec": {"store": "s", "seed": [1]}},
    "submit-seed-negative": {"cmd": "submit",
                             "spec": {"store": "s", "seed": -1}},
    "submit-rounds-infinite": {"cmd": "submit",
                               "spec": {"store": "s",
                                        "rounds": float("inf")}},
    "submit-dataset-list": {"cmd": "submit",
                            "spec": {"store": "s", "dataset": [1]}},
    "submit-ascent-list": {"cmd": "submit",
                           "spec": {"store": "s", "ascent": [1]}},
    "submit-constraint-int": {"cmd": "submit",
                              "spec": {"store": "s", "constraint": 5}},
    "submit-beta-text": {"cmd": "submit",
                         "spec": {"store": "s", "ascent": "momentum",
                                  "beta": "abc"}},
    "submit-overshoot-list": {"cmd": "submit",
                              "spec": {"store": "s", "ascent": "deepfool",
                                       "overshoot": [1]}},
    # Sizes past SPEC_MAXIMA; the daemon under test runs no worker, so
    # a spec that slipped through would only queue, never start.
    "submit-workers-too-many": {"cmd": "submit",
                                "spec": {"store": "s", "workers": 5000,
                                         "shard_size": 1}},
    "submit-seeds-too-many": {"cmd": "submit",
                              "spec": {"store": "s", "seeds": 10 ** 9}},
    "submit-rounds-too-many": {"cmd": "submit",
                               "spec": {"store": "s", "rounds": 10 ** 9}},
    "submit-wave-size-too-big": {"cmd": "submit",
                                 "spec": {"store": "s",
                                          "wave_size": 10 ** 9}},
    "submit-shard-size-too-big": {"cmd": "submit",
                                  "spec": {"store": "s",
                                           "shard_size": 10 ** 9}},
}


#: What a case's error reply must say, where more than "some error".
_ERROR_TEXT = {"peers-unknown-command": "unknown command 'peers'",
               "run-shard-unknown-command": "unknown command 'run-shard'"}


def _plant_targets(daemon):
    """Create every store and file a malformed request points at, so a
    verb that skipped its checks would serve it."""
    store = CorpusStore(daemon.store_path("s"))
    store.add_entry(np.zeros(3), "seed", origin=0)
    np.save(os.path.join(store.inputs_dir, _TRAVERSAL + ".npy"),
            np.zeros(3))
    with open(store.input_path(_GARBAGE), "wb") as handle:
        handle.write(b"not an npy array")
    outside = CorpusStore(os.path.join(daemon.root, "outside"))
    outside.add_entry(np.ones(3), "seed", origin=0)


@pytest.mark.parametrize("name", sorted(MALFORMED_REQUESTS))
def test_server_answers_malformed_request_then_serves(live_server, name):
    _plant_targets(live_server.farm)
    channel = _channel(live_server)
    try:
        reply = _ask(channel, dump_message(MALFORMED_REQUESTS[name]))
        assert reply["ok"] is False and reply["kind"] == "error"
        assert _ERROR_TEXT.get(name, "") in reply["error"]
        # Same channel, next request: the handler thread survived.
        assert _ask(channel, dump_message({"cmd": "ping"}))["ok"] is True
    finally:
        for handle in reversed(channel):
            handle.close()


def test_store_manifest_answers_a_truncated_checkpoint_then_serves(
        live_server):
    store = CorpusStore(live_server.farm.store_path("s"))
    entry, _ = store.add_entry(np.arange(3.0), "seed", origin=0)
    store.commit(fuzz_state=None)
    os.truncate(store.checkpoint_path, 10)
    channel = _channel(live_server)
    try:
        reply = _ask(channel, dump_message({"cmd": "store-manifest",
                                            "store": "s"}))
        assert reply["ok"] is False and "checkpoint.json" in reply["error"]
        # store-entries reads only inputs/, so it still serves.
        reply = _ask(channel, dump_message({"cmd": "store-entries",
                                            "store": "s",
                                            "hashes": [entry]}))
        assert reply["ok"] is True
        np.testing.assert_array_equal(
            decode_array(reply["entries"][0]["data"]), np.arange(3.0))
        assert _ask(channel, dump_message({"cmd": "ping"}))["ok"] is True
    finally:
        for handle in reversed(channel):
            handle.close()


def test_store_manifest_answers_a_wrong_shaped_checkpoint_then_serves(
        live_server):
    store = CorpusStore(live_server.farm.store_path("s"))
    store.add_entry(np.arange(3.0), "seed", origin=0)
    with open(store.checkpoint_path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "coverage_gen": 1, "coverage": 5,
                   "fuzz": None}, handle)
    channel = _channel(live_server)
    try:
        reply = _ask(channel, dump_message({"cmd": "store-manifest",
                                            "store": "s"}))
        assert reply["ok"] is False and "checkpoint.json" in reply["error"]
        assert _ask(channel, dump_message({"cmd": "ping"}))["ok"] is True
    finally:
        for handle in reversed(channel):
            handle.close()


def test_store_manifest_answers_a_garbage_coverage_snapshot_then_serves(
        live_server):
    from repro.coverage import NeuronCoverageTracker
    from repro.nn import Dense, Network
    net = Network([Dense(3, 2, rng=0, name="d")], (3,), name="m")
    store = CorpusStore(live_server.farm.store_path("s"))
    store.add_entry(np.arange(3.0), "seed", origin=0)
    store.commit(coverage_states={"m": NeuronCoverageTracker(
        net, threshold=0.5).state_dict()}, fuzz_state=None)
    with open(store.checkpoint_path, encoding="utf-8") as handle:
        snapshot = json.load(handle)["coverage"]["m"]
    with open(os.path.join(store.path, snapshot), "wb") as handle:
        handle.write(b"garbage")
    channel = _channel(live_server)
    try:
        reply = _ask(channel, dump_message({"cmd": "store-manifest",
                                            "store": "s"}))
        assert reply["ok"] is False and reply["kind"] == "error"
        assert os.path.basename(snapshot) in reply["error"]
        assert _ask(channel, dump_message({"cmd": "ping"}))["ok"] is True
    finally:
        for handle in reversed(channel):
            handle.close()


@pytest.mark.parametrize("name", ["bad-json", "frame-length-not-int",
                                  "frame-ref-missing", "frame-ref-not-int",
                                  "frames-not-a-list", "int-too-long",
                                  "nested-too-deep",
                                  "frames-nested-too-deep"])
def test_server_answers_malformed_header_then_serves(live_server, name):
    data, match = MALFORMED_HEADERS[name]
    channel = _channel(live_server)
    try:
        reply = _ask(channel, data)
        assert reply["ok"] is False and match in reply["error"]
        # A broken stream cannot resync: the server hangs up cleanly.
        assert read_message(channel[1]) == (None, 0)
    finally:
        for handle in reversed(channel):
            handle.close()
    channel = _channel(live_server)
    try:
        assert _ask(channel, dump_message({"cmd": "ping"}))["ok"] is True
    finally:
        for handle in reversed(channel):
            handle.close()
