"""CorpusStore.snapshot on a long-lived handle: it decodes only what
changed on disk since its last snapshot, and returns exactly what a
fresh handle's snapshot returns."""

import json
import os
import shutil

import numpy as np
import pytest

import repro.corpus.store as store_module
from repro.corpus import CorpusStore
from repro.corpus.store import coverage_to_bytes
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn import Dense, Network

NET = Network([Dense(3, 2, rng=0, name="d")], (3,), name="m")


def comparable(snap):
    """A snapshot with its coverage as the committed byte format."""
    return {"config": snap["config"], "generation": snap["generation"],
            "entries": snap["entries"],
            "coverage": {name: coverage_to_bytes(state)
                         for name, state in snap["coverage"].items()}}


def taken(store):
    """What ``snapshot()`` returns, or the error it raises."""
    try:
        return comparable(store.snapshot())
    except ConfigError as error:
        return f"ConfigError: {error}"


def fill(path, rng, tests=4, seeds=2):
    """A store with seeds and tests whose records nest a list."""
    store = CorpusStore(path)
    store.bind_config({"models": ["m"], "threshold": 0.5})
    for i in range(seeds):
        store.add_entry(rng.random(3), "seed", origin=i)
    for i in range(tests):
        store.add_entry(rng.random(3), "test", origin="s",
                        predictions=[i, i + 1])
    return store


def commit_coverage(store, *covered):
    """Commit model ``m``'s coverage with the ``covered`` neurons set."""
    state = NeuronCoverageTracker(NET, threshold=0.5).state_dict()
    state["covered"][list(covered)] = True
    store.commit(coverage_states={"m": state},
                 fuzz_state={"completed_rounds": 1})


def test_a_long_lived_handle_reads_what_a_fresh_one_reads(tmp_path):
    """After each step, the handle that took every earlier snapshot
    returns what a handle opened just now returns (or the same error)."""
    rng = np.random.default_rng(0)
    path = tmp_path / "c"
    fill(path, rng)
    reader = CorpusStore(path, create=False)

    def check():
        fresh = taken(CorpusStore(path, create=False))
        assert taken(reader) == fresh
        return fresh

    check()
    writer = CorpusStore(path)
    for i in range(3):                                  # appends
        writer.add_entry(rng.random(3), "seed", origin=10 + i)
        check()
    meta = writer.meta_path
    line = json.dumps({"hash": "ab" * 32, "kind": "seed"}) + "\n"
    with open(meta, "a", encoding="utf-8") as handle:   # an in-flight
        handle.write(line[:20])                         # append...
        handle.flush()
        check()
        handle.write(line[20:])                         # ...lands
    check()
    with open(meta, "ab") as handle:                    # a torn tail
        handle.write(b'{"hash": "dead')
    check()
    CorpusStore(path).add_entry(rng.random(3), "seed")  # fresh-line guard
    check()
    # A record that lost only its newline is read each time, and the
    # next append's fresh-line guard completes it.
    os.truncate(meta, os.path.getsize(meta) - 1)
    assert len(check()["entries"]) == 11
    CorpusStore(path).add_entry(rng.random(3), "seed")
    assert len(check()["entries"]) == 12
    commit_coverage(CorpusStore(path), 0)               # commits
    check()
    commit_coverage(CorpusStore(path), 1)
    check()
    # A garbled line after a good one: the good one is not kept either.
    size = os.path.getsize(meta)
    with open(meta, "ab") as handle:
        handle.write(json.dumps({"hash": "cd" * 32,
                                 "kind": "seed"}).encode() + b"\n")
        handle.write(b'{"kind": "seed"}\n')
    assert check().startswith("ConfigError")
    os.truncate(meta, size)
    check()
    store = CorpusStore(path)                           # a distill
    _, dropped = store.distill([NET], threshold=0.5)
    assert dropped > 0
    assert len(check()["entries"]) == len(store)
    # In-place rewrites (same inode) that keep the size, then grow it,
    # inside the bytes the handle has already decoded.
    with open(meta, "r+b") as handle:
        data = handle.read()
        handle.seek(0)
        handle.write(data.replace(b'"kind": "seed"', b'"kind": "SEED"', 1))
    check()
    with open(meta, "r+b") as handle:
        data = handle.read()
        handle.seek(0)
        handle.write(data.replace(b'"kind": "SEED"', b'"kind": "seeds"', 1))
    check()
    shutil.rmtree(path)                                 # deleted...
    recreated = fill(path, np.random.default_rng(1), tests=2)
    commit_coverage(recreated, 0, 1)                    # ...and recreated
    assert len(check()["entries"]) == 4


def test_editing_a_snapshot_leaves_the_next_one_alone(tmp_path):
    store = fill(tmp_path / "c", np.random.default_rng(2))
    commit_coverage(store, 0)
    reader = CorpusStore(tmp_path / "c", create=False)
    expected = comparable(reader.snapshot())
    snap = reader.snapshot()
    snap["entries"][0]["kind"] = "edited"
    snap["entries"][-1]["predictions"].append(99)
    snap["entries"].pop()
    snap["coverage"]["m"]["covered"][:] = True
    snap["coverage"]["m"]["network"] = "edited"
    snap["coverage"].clear()
    assert comparable(reader.snapshot()) == expected


@pytest.fixture
def counted(monkeypatch):
    """Counts of meta.jsonl lines decoded, checkpoint parses and
    coverage-file decodes, across every handle."""
    counts = {"lines": 0, "checkpoint": 0, "coverage": 0}
    decode_record = store_module._decode_record
    json_object = store_module._json_object
    decode_coverage = store_module.coverage_from_bytes

    def line(text):
        counts["lines"] += 1
        return decode_record(text)

    def parse(path, data):
        counts["checkpoint"] += path.endswith("checkpoint.json")
        return json_object(path, data)

    def coverage(data):
        counts["coverage"] += 1
        return decode_coverage(data)

    monkeypatch.setattr(store_module, "_decode_record", line)
    monkeypatch.setattr(store_module, "_json_object", parse)
    monkeypatch.setattr(store_module, "coverage_from_bytes", coverage)
    return counts


def test_a_snapshot_decodes_only_what_changed(tmp_path, counted):
    rng = np.random.default_rng(3)
    store = fill(tmp_path / "c", rng)
    commit_coverage(store, 0)
    reader = CorpusStore(tmp_path / "c", create=False)
    assert len(reader.snapshot()["entries"]) == 6
    assert counted == {"lines": 6, "checkpoint": 1, "coverage": 1}
    counted.update(lines=0, checkpoint=0, coverage=0)
    reader.snapshot()
    reader.snapshot(exclude_hashes=[e["hash"] for e in store.entries()])
    assert counted == {"lines": 0, "checkpoint": 0, "coverage": 0}
    for k in (1, 3):
        for _ in range(k):
            store.add_entry(rng.random(3), "seed")
        counted["lines"] = 0
        assert len(reader.snapshot()["entries"]) == len(store)
        assert counted == {"lines": k, "checkpoint": 0, "coverage": 0}
    # A commit re-parses the checkpoint; unchanged coverage bytes under
    # a new generation's file name are not decoded again.
    store.commit(coverage_states=store.coverage_states(),
                 fuzz_state=store.fuzz_state())
    counted.update(lines=0, checkpoint=0, coverage=0)
    assert reader.snapshot()["generation"] == 2
    assert counted == {"lines": 0, "checkpoint": 1, "coverage": 0}


def test_a_torn_tail_is_decoded_every_time_and_never_kept(tmp_path,
                                                           counted):
    rng = np.random.default_rng(4)
    store = fill(tmp_path / "c", rng)
    with open(store.meta_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"hash": "ab", "kind": "seed"}))
    reader = CorpusStore(tmp_path / "c", create=False)
    for _ in range(2):
        counted["lines"] = 0
        assert reader.snapshot()["entries"][-1]["hash"] == "ab"
    assert counted["lines"] == 1


def test_a_bad_line_raises_the_same_error_on_every_handle(tmp_path):
    rng = np.random.default_rng(5)
    store = fill(tmp_path / "c", rng)
    reader = CorpusStore(tmp_path / "c", create=False)
    reader.snapshot()
    for bad, match in ((b"[1, 2]\n", r"meta\.jsonl line 7: not an entry"),
                       (b'{"hash": "\xff"}\n', r"meta\.jsonl: byte \d+ is "
                                               r"not UTF-8")):
        size = os.path.getsize(store.meta_path)
        with open(store.meta_path, "ab") as handle:
            handle.write(bad)
        for each in (reader, CorpusStore(tmp_path / "c", create=False)):
            with pytest.raises(ConfigError, match=match):
                each.snapshot()
        assert taken(reader) == taken(CorpusStore(tmp_path / "c"))
        os.truncate(store.meta_path, size)
        assert len(reader.snapshot()["entries"]) == 6
