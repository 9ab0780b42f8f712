"""CorpusStore: content addressing, atomic commits, merge laws, distill."""

import json
import os

import numpy as np
import pytest

from repro.corpus import CorpusStore, input_hash
from repro.coverage import NeuronCoverageTracker
from repro.dist import pull
from repro.errors import ConfigError, CoverageError


def test_input_hash_canonicalizes_dtype_and_layout(rng):
    x = rng.random((4, 3))
    assert input_hash(x) == input_hash(np.asfortranarray(x))
    assert input_hash(x) == input_hash(x.tolist())
    assert input_hash(x) != input_hash(x + 1e-9)
    # Shape participates: a flat view is a different input.
    assert input_hash(x) != input_hash(x.ravel())


def test_add_entry_dedups_by_content(tmp_path, rng):
    store = CorpusStore(tmp_path / "c")
    x = rng.random((2, 2))
    h1, added1 = store.add_entry(x, "seed", origin=0)
    h2, added2 = store.add_entry(x.copy(), "test", origin="whatever")
    assert (added1, added2) == (True, False)
    assert h1 == h2
    assert len(store) == 1
    assert store.get(h1)["kind"] == "seed"   # first write wins
    np.testing.assert_array_equal(store.load_input(h1), x)


def test_entries_keep_insertion_order_across_reopen(tmp_path, rng):
    store = CorpusStore(tmp_path / "c")
    hashes = [store.add_entry(rng.random((3,)), "seed", origin=i)[0]
              for i in range(5)]
    reopened = CorpusStore(tmp_path / "c")
    assert [e["hash"] for e in reopened.entries()] == hashes
    assert [e["origin"] for e in reopened.entries()] == list(range(5))


def test_truncated_meta_line_is_ignored(tmp_path, rng):
    store = CorpusStore(tmp_path / "c")
    keep, _ = store.add_entry(rng.random((3,)), "seed")
    with open(store.meta_path, "a", encoding="utf-8") as handle:
        handle.write('{"hash": "deadbeef", "kin')   # crash mid-append
    reopened = CorpusStore(tmp_path / "c")
    assert [e["hash"] for e in reopened.entries()] == [keep]


def test_entry_added_after_a_torn_meta_line_survives_reopen(tmp_path, rng):
    store = CorpusStore(tmp_path / "c")
    keep, _ = store.add_entry(rng.random((3,)), "seed")
    with open(store.meta_path, "a", encoding="utf-8") as handle:
        handle.write('{"hash": "deadbeef", "kin')   # crash mid-append
    after, added = CorpusStore(tmp_path / "c").add_entry(rng.random((3,)),
                                                         "seed")
    assert added
    reopened = CorpusStore(tmp_path / "c")
    assert [e["hash"] for e in reopened.entries()] == [keep, after]


def test_record_missing_only_its_newline_keeps_the_next_one(tmp_path, rng):
    store = CorpusStore(tmp_path / "c")
    first, _ = store.add_entry(rng.random((3,)), "seed")
    # Crash between the record's "}" and its "\n".
    os.truncate(store.meta_path, os.path.getsize(store.meta_path) - 1)
    second, _ = CorpusStore(tmp_path / "c").add_entry(rng.random((3,)),
                                                      "seed")
    reopened = CorpusStore(tmp_path / "c")
    assert [e["hash"] for e in reopened.entries()] == [first, second]


@pytest.mark.parametrize("line", ["[1, 2]", '{"kind": "seed"}',
                                  '{"hash": 7, "kind": "seed"}',
                                  '{"hash": "ab"}', "1" + "0" * 5000],
                         ids=["list", "no-hash", "int-hash", "no-kind",
                              "int-too-long"])
def test_meta_line_that_is_not_an_entry_record_is_a_config_error(
        tmp_path, rng, line):
    store = CorpusStore(tmp_path / "c")
    store.add_entry(rng.random((3,)), "seed")
    with open(store.meta_path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    reopened = CorpusStore(tmp_path / "c")
    with pytest.raises(ConfigError, match=r"meta\.jsonl line 2"):
        reopened.entries()


def test_meta_log_that_is_not_utf8_is_a_config_error(tmp_path):
    store = CorpusStore(tmp_path / "c")
    with open(store.meta_path, "wb") as handle:
        handle.write(b'{"hash": "\xff"}\n')
    with pytest.raises(ConfigError, match="meta.jsonl"):
        len(CorpusStore(tmp_path / "c"))


@pytest.mark.parametrize("name", ["checkpoint.json", "MANIFEST.json"])
@pytest.mark.parametrize("text", ['{"version": 1, "cov', "[1, 2]"])
def test_garbled_store_json_is_a_config_error_naming_the_file(tmp_path,
                                                             name, text):
    CorpusStore(tmp_path / "c").commit(fuzz_state=None)
    with open(tmp_path / "c" / name, "w", encoding="utf-8") as handle:
        handle.write(text)
    with pytest.raises(ConfigError, match=name):
        CorpusStore(tmp_path / "c").snapshot()


def test_open_reads_neither_the_log_nor_the_checkpoint(tmp_path, rng):
    """A handle that only serves inputs (the store-entries verb) parses
    neither file; the entry index loads on first use."""
    store = CorpusStore(tmp_path / "c")
    x = rng.random((3,))
    entry, _ = store.add_entry(x, "seed")
    store.commit(fuzz_state=None)
    for path in (store.meta_path, store.checkpoint_path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
    reader = CorpusStore(tmp_path / "c", create=False)
    np.testing.assert_array_equal(reader.load_input(entry), x)
    with pytest.raises(ConfigError, match="meta.jsonl"):
        len(reader)


def test_commit_roundtrips_coverage(tmp_path, lenet1, rng):
    tracker = NeuronCoverageTracker(lenet1, threshold=0.2)
    tracker.update(rng.random((4, 1, 28, 28)))
    store = CorpusStore(tmp_path / "c")
    store.commit(coverage_states={lenet1.name: tracker.state_dict()},
                 fuzz_state={"completed_rounds": 1})
    reopened = CorpusStore(tmp_path / "c")
    state = reopened.coverage_states()[lenet1.name]
    np.testing.assert_array_equal(state["covered"], tracker.covered)
    assert state["threshold"] == 0.2
    assert reopened.fuzz_state() == {"completed_rounds": 1}
    # The snapshot loads back into a live tracker.
    twin = NeuronCoverageTracker(lenet1, threshold=0.2)
    twin.load_state_dict(state)
    np.testing.assert_array_equal(twin.covered, tracker.covered)


def test_commit_garbage_collects_old_generations(tmp_path, lenet1, rng):
    tracker = NeuronCoverageTracker(lenet1, threshold=0.2)
    store = CorpusStore(tmp_path / "c")
    for _ in range(3):
        tracker.update(rng.random((2, 1, 28, 28)))
        store.commit(coverage_states={lenet1.name: tracker.state_dict()},
                     fuzz_state=None)
    snapshots = [n for n in os.listdir(store.coverage_dir)
                 if n.endswith(".npz")]
    assert len(snapshots) == 1
    assert ".g3." in snapshots[0]


def test_merge_coverage_follows_or_law(tmp_path, lenet1, rng):
    a = NeuronCoverageTracker(lenet1, threshold=0.2)
    b = NeuronCoverageTracker(lenet1, threshold=0.2)
    xa, xb = rng.random((3, 1, 28, 28)), rng.random((3, 1, 28, 28))
    a.update(xa)
    b.update(xb)
    store = CorpusStore(tmp_path / "c")
    store.commit(coverage_states={lenet1.name: a.state_dict()},
                 fuzz_state=None)
    merged = store.merge_coverage({lenet1.name: b.state_dict()})
    both = NeuronCoverageTracker(lenet1, threshold=0.2)
    both.update(np.concatenate([xa, xb]))
    np.testing.assert_array_equal(merged[lenet1.name]["covered"],
                                  both.covered)


def test_merge_coverage_rejects_incompatible(tmp_path, lenet1, rng):
    a = NeuronCoverageTracker(lenet1, threshold=0.2)
    store = CorpusStore(tmp_path / "c")
    store.commit(coverage_states={lenet1.name: a.state_dict()},
                 fuzz_state=None)
    other = NeuronCoverageTracker(lenet1, threshold=0.7)  # other criterion
    with pytest.raises(CoverageError):
        store.merge_coverage({lenet1.name: other.state_dict()})


def test_bind_config_pins_and_validates(tmp_path):
    store = CorpusStore(tmp_path / "c")
    store.bind_config({"models": ["a", "b"], "threshold": 0.0})
    reopened = CorpusStore(tmp_path / "c")
    reopened.bind_config({"models": ["a", "b"], "threshold": 0.0})
    with pytest.raises(ConfigError):
        reopened.bind_config({"models": ["a", "z"], "threshold": 0.0})


def test_open_missing_store_without_create_raises(tmp_path):
    """Read-only callers must not fabricate a store at a typo'd path."""
    with pytest.raises(ConfigError):
        CorpusStore(tmp_path / "nope", create=False)
    assert not (tmp_path / "nope").exists()
    dest = CorpusStore(tmp_path / "dest")
    with pytest.raises(ConfigError):
        pull(dest, str(tmp_path / "nope"))


def test_version_mismatch_is_config_error(tmp_path):
    store = CorpusStore(tmp_path / "c")
    store.commit(fuzz_state=None)
    with open(store.manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["version"] = 99
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    # A future-format store may also have records this build cannot
    # parse; the version check must fire before the parsers do.
    with open(store.meta_path, "a", encoding="utf-8") as handle:
        handle.write('{"content_id": "a-version-99-record"}\n')
    with pytest.raises(ConfigError):
        CorpusStore(tmp_path / "c")


def test_store_merge_dedups_and_ors_coverage(tmp_path, lenet1, rng):
    src_a = CorpusStore(tmp_path / "a")
    src_b = CorpusStore(tmp_path / "b")
    shared = rng.random((3,))
    ha, _ = src_a.add_entry(shared, "seed", origin=0)
    src_a.add_entry(rng.random((3,)), "test", origin=ha)
    src_b.add_entry(shared, "seed", origin=0)
    src_b.add_entry(rng.random((3,)), "test", origin=ha)
    ta = NeuronCoverageTracker(lenet1, threshold=0.2)
    tb = NeuronCoverageTracker(lenet1, threshold=0.2)
    xa, xb = rng.random((2, 1, 28, 28)), rng.random((2, 1, 28, 28))
    ta.update(xa)
    tb.update(xb)
    src_a.commit(coverage_states={lenet1.name: ta.state_dict()},
                 fuzz_state=None)
    src_b.commit(coverage_states={lenet1.name: tb.state_dict()},
                 fuzz_state=None)

    dest = CorpusStore(tmp_path / "dest")
    added = pull(dest, src_a) + pull(dest, str(tmp_path / "b"))
    assert added == 3            # the shared seed dedups
    assert len(dest) == 3
    both = NeuronCoverageTracker(lenet1, threshold=0.2)
    both.update(np.concatenate([xa, xb]))
    np.testing.assert_array_equal(
        dest.coverage_states()[lenet1.name]["covered"], both.covered)
    # Idempotent: re-merging a source changes nothing.
    assert pull(dest, src_a) == 0
    assert len(dest) == 3


def test_merge_incompatible_coverage_fails_before_entries(tmp_path, lenet1,
                                                          rng):
    """Regression: an incompatible source used to pollute the
    destination's entry list before the coverage merge raised."""
    src = CorpusStore(tmp_path / "src")
    src.add_entry(rng.random((3,)), "seed", origin=0)
    hot = NeuronCoverageTracker(lenet1, threshold=0.7)
    src.commit(coverage_states={lenet1.name: hot.state_dict()},
               fuzz_state=None)
    dest = CorpusStore(tmp_path / "dest")
    cold = NeuronCoverageTracker(lenet1, threshold=0.2)
    dest.commit(coverage_states={lenet1.name: cold.state_dict()},
                fuzz_state=None)
    with pytest.raises(CoverageError):
        pull(dest, src)
    assert len(dest) == 0
    assert dest.coverage_states()[lenet1.name]["threshold"] == 0.2


def test_merge_skips_disk_reads_for_known_entries(tmp_path, rng):
    shared = rng.random((3,))
    src = CorpusStore(tmp_path / "src")
    src.add_entry(shared, "seed", origin=0)
    dest = CorpusStore(tmp_path / "dest")
    dest.add_entry(shared, "seed", origin=0)

    def no_read(entry_hash):
        raise AssertionError("known entries must not be re-read")

    src.load_input = no_read
    assert pull(dest, src) == 0
    assert len(dest) == 1


def test_distill_keeps_coverage_preserving_tests(tmp_path, lenet1, rng):
    store = CorpusStore(tmp_path / "c")
    inputs = rng.random((6, 1, 28, 28))
    for i, x in enumerate(inputs):
        store.add_entry(x, "test", origin=int(i))
    seed_hash, _ = store.add_entry(rng.random((1, 28, 28)), "seed", origin=0)
    before = NeuronCoverageTracker(lenet1, threshold=0.2)
    before.update(inputs)
    kept, dropped = store.distill([lenet1], threshold=0.2)
    assert kept + dropped == 6
    assert seed_hash in store                 # seeds survive distillation
    remaining = store.entries(kind="test")
    after = NeuronCoverageTracker(lenet1, threshold=0.2)
    after.update(store.load_inputs([e["hash"] for e in remaining]))
    np.testing.assert_array_equal(after.covered, before.covered)
    # Dropped inputs are gone from disk; kept ones reload.
    on_disk = {n[:-4] for n in os.listdir(store.inputs_dir)}
    assert on_disk == {e["hash"] for e in store.entries()}
    reopened = CorpusStore(tmp_path / "c")
    assert len(reopened) == len(store)
