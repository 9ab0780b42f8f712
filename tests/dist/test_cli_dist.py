"""CLI federation surface: ``repro join`` / ``repro peers`` argument
handling.

The heavy lifting (ledger behavior) is covered by
tests/dist/test_federation.py; these tests pin the operator-facing
contract: peers.json edits, exit codes, and the unreachable-peer and
bad-argument error paths.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading

import pytest

from repro.cli import main
from repro.dist import PEERS_NAME, PeerList, parse_peer
from repro.errors import ConfigError


def _peers_on_disk(root):
    with open(os.path.join(root, PEERS_NAME), encoding="utf-8") as handle:
        return [(p["host"], p["port"])
                for p in json.load(handle)["peers"]]


# -- parse_peer ---------------------------------------------------------------
def test_parse_peer_accepts_host_port():
    assert parse_peer("127.0.0.1:7001") == ("127.0.0.1", 7001)
    assert parse_peer(" box.local:80 ") == ("box.local", 80)


@pytest.mark.parametrize("bad", ["nocolon", ":7001", "host:", "host:x",
                                 "host:0", "host:70000"])
def test_parse_peer_rejects_garbage(bad):
    with pytest.raises(ConfigError, match="peer"):
        parse_peer(bad)


# -- repro join ---------------------------------------------------------------
def test_join_add_remove_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "root")
    assert main(["join", "--root", root, "127.0.0.1:7001"]) == 0
    assert "joined" in capsys.readouterr().out
    assert _peers_on_disk(root) == [("127.0.0.1", 7001)]

    # Duplicate join is a polite no-op, not an error.
    assert main(["join", "--root", root, "127.0.0.1:7001"]) == 0
    assert "already" in capsys.readouterr().out
    assert _peers_on_disk(root) == [("127.0.0.1", 7001)]

    assert main(["join", "--root", root, "--remove",
                 "127.0.0.1:7001"]) == 0
    assert _peers_on_disk(root) == []

    # Removing a peer that is not there fails visibly (exit 1): the
    # operator typo'd the address and should know.
    assert main(["join", "--root", root, "--remove",
                 "127.0.0.1:7001"]) == 1


def test_join_rejects_bad_peer(tmp_path, capsys):
    root = str(tmp_path / "root")
    assert main(["join", "--root", root, "not-a-peer"]) == 1
    assert "peer" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(root, PEERS_NAME))


def test_peer_list_survives_torn_file(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / PEERS_NAME).write_text("{torn", encoding="utf-8")
    assert PeerList(str(root)).peers() == []
    # And a join heals it.
    assert main(["join", "--root", str(root), "10.0.0.2:7001"]) == 0
    assert _peers_on_disk(str(root)) == [("10.0.0.2", 7001)]


#: peers.json contents that are JSON but not a peer list.
WRONG_SHAPES = {
    "record-without-port": '{"peers": [{"host": "a"}]}',
    "peers-not-a-list": '{"peers": "xyz"}',
    "top-level-list": "[1, 2]",
    "port-not-a-number": '{"peers": [{"host": "a", "port": "http"}]}',
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_peer_list_refuses_wrong_shape(tmp_path, name):
    (tmp_path / PEERS_NAME).write_text(WRONG_SHAPES[name], encoding="utf-8")
    with pytest.raises(ConfigError, match=PEERS_NAME):
        PeerList(str(tmp_path)).records()


# -- repro peers --------------------------------------------------------------
def test_peers_with_empty_list(tmp_path, capsys):
    assert main(["peers", "--root", str(tmp_path / "root")]) == 0
    assert "no peers configured" in capsys.readouterr().out


def test_peers_reports_wrong_shape_in_one_line(tmp_path, capsys):
    (tmp_path / PEERS_NAME).write_text('{"peers": "xyz"}', encoding="utf-8")
    assert main(["peers", "--root", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and PEERS_NAME in err


def test_peers_reports_unreachable(tmp_path, capsys):
    root = str(tmp_path / "root")
    # Port 1 on loopback: refused instantly, no daemon needed.
    assert main(["join", "--root", root, "127.0.0.1:1"]) == 0
    capsys.readouterr()
    assert main(["peers", "--root", root]) == 0
    assert "unreachable" in capsys.readouterr().out


def test_peers_survives_midrequest_reset(tmp_path, capsys):
    """A peer that accepts the connection and then dies mid-request
    (RST, not a clean close) must read as unreachable, not crash the
    command with a raw ConnectionResetError."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]

    def rst_one_connection():
        conn, _ = server.accept()
        # Consume the request so the client is committed — blocked
        # reading the answer — then close with SO_LINGER zero, which
        # sends RST: the in-flight read fails with ECONNRESET rather
        # than a clean EOF.
        conn.recv(65536)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        conn.close()

    thread = threading.Thread(target=rst_one_connection, daemon=True)
    thread.start()
    try:
        root = str(tmp_path / "root")
        assert main(["join", "--root", root, f"127.0.0.1:{port}"]) == 0
        capsys.readouterr()
        assert main(["peers", "--root", root]) == 0
        assert "unreachable" in capsys.readouterr().out
        thread.join(timeout=5)
    finally:
        server.close()


def test_peers_shows_live_gossip(tmp_path, capsys, live_peer):
    daemon, _server, port = live_peer
    root = str(tmp_path / "root")
    assert main(["join", "--root", root, f"127.0.0.1:{port}"]) == 0
    capsys.readouterr()
    assert main(["peers", "--root", root]) == 0
    out = capsys.readouterr().out
    assert f"127.0.0.1:{port}" in out
    assert "queue=0" in out
    assert "draining=False" in out


# -- gossip auto-discovery ----------------------------------------------------
def test_poll_peers_folds_gossiped_peers(tmp_path, live_peer):
    """Satellite: peers-of-peers heard in gossip join the persisted
    PeerList as ``via: gossip`` — capped, dedup'd, never ourselves."""
    from repro.dist import PeerList
    daemon, _server, port = live_peer
    # A second live daemon that knows about a third (not live) host.
    from repro.farm import FarmDaemon, FarmServer
    other = FarmDaemon(tmp_path / "other-root", workers=1)
    other_server = FarmServer(other)
    thread = threading.Thread(target=other_server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        PeerList(other.root).add("10.9.9.9", 7333)      # hearsay target
        PeerList(other.root).add("127.0.0.1", port)     # gossip echoes us
        PeerList(daemon.root).add("127.0.0.1", other_server.port)
        daemon.poll_peers()
        records = {(r["host"], r["port"]): r["via"]
                   for r in PeerList(daemon.root).records()}
        # Learned the third host via gossip; the joined peer kept its
        # provenance; our own endpoint was not folded back in.
        assert records[("10.9.9.9", 7333)] == "gossip"
        assert records[("127.0.0.1", other_server.port)] == "join"
        assert ("127.0.0.1", port) not in records
        # Idempotent: a second poll discovers nothing new.
        before = PeerList(daemon.root).records()
        daemon.poll_peers()
        assert PeerList(daemon.root).records() == before
    finally:
        other_server.shutdown()
        thread.join()
        other_server.close()
        other.drain(timeout=30.0)


def test_gossip_peer_cap(tmp_path):
    from repro.dist import MAX_GOSSIP_PEERS, PeerList
    peer_list = PeerList(str(tmp_path / "root"))
    for i in range(MAX_GOSSIP_PEERS + 4):
        peer_list.add("10.0.0.1", 7000 + i, via="gossip")
    records = peer_list.records()
    assert sum(r["via"] == "gossip" for r in records) == MAX_GOSSIP_PEERS
    # Joins are exempt from the cap, and upgrade gossip records.
    assert peer_list.add("10.0.0.2", 9000) is True
    assert peer_list.add("10.0.0.1", 7000) is False     # already listed
    assert PeerList(str(tmp_path / "root")).records()[0]["via"] == "join"


def test_peers_output_marks_discovered(tmp_path, capsys):
    from repro.dist import PeerList
    root = str(tmp_path / "root")
    PeerList(root).add("127.0.0.1", 1)                  # joined, dead
    PeerList(root).add("127.0.0.1", 2, via="gossip")    # discovered, dead
    assert main(["peers", "--root", root]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[discovered]" not in lines[0]
    assert "[discovered]" in lines[1]
